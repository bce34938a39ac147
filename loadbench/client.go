package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"time"
)

// conn is one persistent HTTP/1.1 connection to the server. The generator
// writes requests by hand and parses responses with a minimal reader, so
// its own per-request cost stays small and fixed; net/http's client would
// add a pool, goroutines and dozens of allocations the benchmark would then
// have to subtract.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

// response is the part of an HTTP response the benchmark inspects. Body
// aliases the connection's buffer and is valid until the next request.
type response struct {
	status  int
	body    []byte
	version uint64 // X-Snapshot-Version, when present
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and reads its response. hdr is appended verbatim to
// the header block (each line ending in \r\n). Any transport error closes
// the connection; the next call redials.
func (c *conn) do(method, path, hdr string, body []byte, timeout time.Duration) (response, error) {
	if err := c.send(method, path, hdr, body, timeout); err != nil {
		return response{}, err
	}
	resp, err := c.recv(timeout)
	if err != nil {
		c.close()
	}
	return resp, err
}

// send writes one request, dialing first if the connection is closed.
// Requests may be pipelined: send does not wait for earlier responses,
// and recv, which may run on another goroutine, reads them in order.
func (c *conn) send(method, path, hdr string, body []byte, timeout time.Duration) error {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	if err := c.c.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		c.close()
		return err
	}
	b := c.req[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if body != nil {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, hdr...)
	b = append(b, "\r\n"...)
	b = append(b, body...)
	c.req = b
	if _, err := c.c.Write(b); err != nil {
		c.close()
		return err
	}
	return nil
}

// recv reads the next response.
func (c *conn) recv(timeout time.Duration) (response, error) {
	if err := c.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return response{}, err
	}
	return c.read()
}

func (c *conn) read() (response, error) {
	var resp response
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return resp, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return resp, fmt.Errorf("bad status line %q", line)
	}
	if resp.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return resp, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, closeAfter := -1, false, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return resp, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return resp, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			closeAfter = bytes.EqualFold(v, []byte("close"))
		case bytes.EqualFold(k, []byte("X-Snapshot-Version")):
			if resp.version, err = strconv.ParseUint(string(v), 10, 64); err != nil {
				return resp, fmt.Errorf("bad X-Snapshot-Version %q", v)
			}
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return resp, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
			if err != nil {
				return resp, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				if _, err := c.br.ReadSlice('\n'); err != nil {
					return resp, err
				}
				break
			}
			if c.body, err = readN(c.br, c.body, int(n)); err != nil {
				return resp, err
			}
			if _, err := c.br.Discard(2); err != nil {
				return resp, err
			}
		}
	case length >= 0:
		if c.body, err = readN(c.br, c.body, length); err != nil {
			return resp, err
		}
	case resp.status == 304 || resp.status == 204:
	default:
		return resp, errors.New("response without length")
	}
	resp.body = c.body
	if closeAfter {
		return resp, errors.New("server closed the connection")
	}
	return resp, nil
}

func readN(r io.Reader, dst []byte, n int) ([]byte, error) {
	off := len(dst)
	dst = slices.Grow(dst, n)[:off+n]
	_, err := io.ReadFull(r, dst[off:])
	return dst, err
}
