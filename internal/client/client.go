// Package client is the Go client for sqlsheetd's framed wire protocol.
// A Client owns one TCP connection (one server session); Query serializes
// concurrent callers because the protocol is strict request/response.
package client

import (
	"fmt"
	"net"
	"sync"
	"time"

	"sqlsheet/internal/wire"
)

// Client is one connection to a sqlsheetd server.
type Client struct {
	mu sync.Mutex // one request/response at a time

	connMu sync.Mutex
	conn   net.Conn
}

// Dial connects to a sqlsheetd server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 5*time.Second)
}

// DialTimeout connects with a dial deadline.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Query sends one statement batch and decodes the response. Server-side
// failures come back as *wire.Error with a typed code (PARSE_ERROR carries
// the line/column/token of the offending input).
func (c *Client) Query(sql string) (*wire.Result, error) {
	return c.roundTrip(wire.EncodeQuery(sql))
}

// Ping round-trips a no-op request.
func (c *Client) Ping() error {
	_, err := c.roundTrip([]byte(wire.ReqPing))
	return err
}

// Close ends the session politely (QUIT/BYE) and closes the connection.
func (c *Client) Close() error {
	c.connMu.Lock()
	conn := c.conn
	c.conn = nil
	c.connMu.Unlock()
	if conn == nil {
		return nil
	}
	// Best-effort goodbye; the close below is what matters.
	if wire.WriteFrame(conn, []byte(wire.ReqQuit)) == nil {
		conn.SetReadDeadline(time.Now().Add(time.Second))
		if p, err := wire.ReadFrame(conn); err == nil {
			wire.DecodeResponse(p)
		}
	}
	return conn.Close()
}

func (c *Client) get() (net.Conn, error) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.conn == nil {
		return nil, fmt.Errorf("client: connection closed")
	}
	return c.conn, nil
}

func (c *Client) roundTrip(req []byte) (*wire.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	conn, err := c.get()
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(conn, req); err != nil {
		return nil, err
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	return wire.DecodeResponse(payload)
}
