package main

import (
	"bytes"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one sent request. Times are nanoseconds since the phase began;
// due is when an open-loop schedule wanted the request sent (equal to sent
// in a closed loop).
type sample struct {
	op              int32
	kind            opKind // as sent: an event with no open offer goes out as a stats read
	due, sent, done int64
	body            []byte
	failed          bool // transport error or non-2xx
}

// latency is the op's time from due to done, in ms; +Inf when it failed.
func (s *sample) latency() float64 {
	if s.failed {
		return missed
	}
	return float64(s.done-s.due) / 1e6
}

// offerPool holds the ids of escrowed offers the server returned that no
// event has converted yet, so conversion events name live offers.
type offerPool struct {
	mu  sync.Mutex
	ids []uint64
}

var offerIDKey = []byte(`"offer_id":`)

// harvest records every non-zero offer_id in a response body.
func (p *offerPool) harvest(body []byte) {
	var found []uint64
	for {
		i := bytes.Index(body, offerIDKey)
		if i < 0 {
			break
		}
		body = body[i+len(offerIDKey):]
		j := 0
		for j < len(body) && body[j] >= '0' && body[j] <= '9' {
			j++
		}
		if id, err := strconv.ParseUint(string(body[:j]), 10, 64); err == nil && id != 0 {
			found = append(found, id)
		}
	}
	if len(found) == 0 {
		return
	}
	p.mu.Lock()
	p.ids = append(p.ids, found...)
	p.mu.Unlock()
}

// take removes and returns one of the newest open offers (the newest are
// never evicted from the escrow table), or false when none is open.
func (p *offerPool) take(pick uint64) (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.ids)
	if n == 0 {
		return 0, false
	}
	window := n
	if window > 1024 {
		window = 1024
	}
	i := n - 1 - int(pick%uint64(window))
	id := p.ids[i]
	p.ids[i] = p.ids[n-1]
	p.ids = p.ids[:n-1]
	return id, true
}

// generator sends ops over a fixed set of connections (at most nproc).
type generator struct {
	conns []*conn
	ops   []op
	pool  *offerPool // nil when the fleet has no escrowed offers
	// statsReq substitutes for an event op when no offer is open.
	statsReq []byte
}

// send performs ops[i] on c and fills s.
func (d *generator) send(c *conn, i int, s *sample) {
	o := &d.ops[i]
	s.op, s.kind = int32(i), o.kind
	req := o.req
	if o.kind == opEvent {
		req = d.statsReq
		s.kind = opStats
		if d.pool != nil {
			if id, ok := d.pool.take(o.pick); ok {
				body := strconv.AppendUint([]byte(`{"offer_id":`), id, 10)
				req = wireRequest("POST", "/v1/events", append(body, '}'), i)
				s.kind = opEvent
			}
		}
	}
	status, body, err := c.do(req)
	s.body = body
	s.failed = err != nil || status < 200 || status > 299
	if !s.failed && d.pool != nil && (o.kind == opBatch || o.kind == opArrival) {
		d.pool.harvest(body)
	}
}

// phase is the samples of one load phase; sample times are relative to start.
type phase struct {
	samples []sample
	start   time.Time
	elapsed time.Duration
}

// openLoop sends n requests on a fixed schedule of rate requests/s:
// request k is due at k/rate after the start, whether or not earlier ones
// have returned. Each connection's worker takes the next due request as
// soon as it is free, so a stalled server delays later sends and the delay
// shows in their due-time latency. Requests are taken in order from
// ops[from:] and wrap around to ops[0].
func (d *generator) openLoop(from, n int, rate float64) phase {
	out := make([]sample, n)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range d.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(out) {
					return
				}
				s := &out[k]
				s.due = int64(float64(k) / rate * 1e9)
				if wait := time.Duration(s.due) - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				s.sent = int64(time.Since(t0))
				d.send(c, (from+k)%len(d.ops), s)
				s.done = int64(time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	return phase{samples: out, start: t0, elapsed: time.Since(t0)}
}

// closedLoop keeps every connection busy for dur: each worker sends its
// next request as soon as the previous reply arrives. Requests are taken in
// order from ops[from:] and wrap around to ops[0]. stopAfter > 0 ends the
// phase once that many requests have been acknowledged, and onStop runs at
// that moment (batch-durable SIGKILLs the server there).
func (d *generator) closedLoop(from int, dur time.Duration, stopAfter int64, onStop func()) phase {
	per := make([][]sample, len(d.conns))
	var next, acked atomic.Int64
	var stopped atomic.Bool
	var once sync.Once
	t0 := time.Now()
	var wg sync.WaitGroup
	for w, c := range d.conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for !stopped.Load() && time.Since(t0) < dur {
				i := (from + int(next.Add(1)-1)) % len(d.ops)
				var s sample
				s.sent = int64(time.Since(t0))
				s.due = s.sent
				d.send(c, i, &s)
				s.done = int64(time.Since(t0))
				if s.failed && stopped.Load() {
					return // cut by the stop: neither acknowledged nor failed
				}
				per[w] = append(per[w], s)
				if !s.failed && stopAfter > 0 && acked.Add(1) >= stopAfter {
					once.Do(func() {
						stopped.Store(true)
						onStop()
					})
					return
				}
			}
		}(w, c)
	}
	wg.Wait()
	ph := phase{start: t0, elapsed: time.Since(t0)}
	for _, p := range per {
		ph.samples = append(ph.samples, p...)
	}
	return ph
}
