package main

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 client connection. Requests are written
// as pre-encoded wire bytes, so the timed path does no request building;
// responses are parsed by net/http.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one wire request and returns the response status and body.
func (c *conn) do(req []byte) (int, []byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	return c.read()
}

// read reads the next response on the connection.
func (c *conn) read() (int, []byte, error) {
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// get is a one-off GET on this connection.
func (c *conn) get(path string) (int, []byte, error) {
	return c.do(wireRequest("GET", path, nil, -1))
}

// wireRequest encodes a complete HTTP/1.1 request. seq ≥ 0 adds a
// traceparent header carrying traceIDFor(seq), so the server's trace of the
// request can be joined back to it.
func wireRequest(method, path string, body []byte, seq int) []byte {
	b := make([]byte, 0, 160+len(body))
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: muaa\r\n"...)
	if seq >= 0 {
		id := traceIDFor(seq)
		b = append(b, "Traceparent: 00-"...)
		b = hex.AppendEncode(b, id[:])
		b = append(b, "-00000000000000a1-01\r\n"...)
	}
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	return append(b, body...)
}

// appendFloat writes v as the shortest JSON number that parses back to v.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendFloats(b []byte, vs []float64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return append(b, ']')
}

// waitHealthy polls GET /v1/healthz until it answers 200 or the deadline
// passes, and returns when it did. For the first spinFor it polls again at
// once: an idle Go process's 200 µs sleep lasts about 1.1 ms, which would
// round an in-memory start of 4–5 ms to whole sleeps. The spin stops
// early so that it does not hold a core through a longer WAL replay.
func waitHealthy(addr string, deadline time.Time) (time.Time, error) {
	req := wireRequest("GET", "/v1/healthz", nil, -1)
	start := time.Now()
	for {
		if c, err := dial(addr); err == nil {
			status, _, err := c.do(req)
			c.close()
			if err == nil && status == http.StatusOK {
				return time.Now(), nil
			}
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("server at %s not healthy by deadline", addr)
		}
		if time.Since(start) > spinFor {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// spinFor is how long waitHealthy polls without sleeping.
const spinFor = 10 * time.Millisecond
