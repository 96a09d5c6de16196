package server_test

import (
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlsheet"
	"sqlsheet/internal/server"
	"sqlsheet/internal/wire"
)

var (
	fuzzOnce sync.Once
	fuzzAddr string
)

// fuzzServer lazily boots one shared server for the fuzz workers; the
// process-wide invariant under test is "no panic, every session either gets
// an answer or a clean close".
func fuzzServer(t testing.TB) string {
	fuzzOnce.Do(func() {
		db := sqlsheet.Open()
		db.MustExec(`CREATE TABLE tiny (a INT, b TEXT)`)
		db.MustExec(`INSERT INTO tiny VALUES (1, 'x')`)
		db.MustExec(`INSERT INTO tiny VALUES (2, 'y')`)
		srv := server.New(db, server.Config{
			MaxInFlight:  4,
			MaxQueue:     4,
			QueueWait:    100 * time.Millisecond,
			QueryTimeout: time.Second,
		})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		fuzzAddr = srv.Addr().String()
	})
	return fuzzAddr
}

// frame wraps payload in a well-formed length prefix (seed-corpus helper).
func frame(payload string) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	return append(hdr[:], payload...)
}

// FuzzWireProtocol throws raw bytes — malformed frames, torn writes, bogus
// lengths, valid-looking requests — at a live server connection. The server
// must never panic and must either answer with frames or close the
// connection; the session always terminates.
func FuzzWireProtocol(f *testing.F) {
	f.Add(frame("QUERY\nSELECT a, b FROM tiny ORDER BY a"))
	f.Add(frame("QUERY\nSELECT nonsense"))
	f.Add(frame("PING"))
	f.Add(frame("QUIT"))
	f.Add(frame("BOGUS\nstuff"))
	f.Add(frame(""))
	f.Add([]byte{0x00, 0x00})                                 // torn header
	f.Add([]byte{0x00, 0x00, 0x00, 0x10, 'h', 'i'})           // torn payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})                // oversized length
	f.Add(append(frame("PING"), frame("QUERY\nSELECT 1")...)) // pipelined
	f.Add(append(frame("PING"), 0x00, 0x00, 0x00))            // valid then torn
	f.Add([]byte("GET /metrics HTTP/1.1\r\nHost: localhost")) // wrong protocol
	// 100k nested parentheses: rejected by the parser's depth bound.
	f.Add(frame("QUERY\nSELECT " + strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000)))
	// Operator chains: 4,000 terms are answered, 100,000 hit the same bound.
	f.Add(frame("QUERY\nSELECT a" + strings.Repeat("+1", 4000) + " FROM tiny"))
	f.Add(frame("QUERY\nSELECT a" + strings.Repeat("+1", 100000) + " FROM tiny"))
	// A literal spelling the bytes that once separated tokens in the text
	// fingerprint, after the statement those bytes spell.
	f.Add(append(frame("QUERY\nSELECT 'a', 'b' FROM tiny"), frame("QUERY\nSELECT 'a\x00\x04,\x00\x03b' FROM tiny")...))
	// Retired verbs are unknown requests.
	f.Add(frame("SUBPLAN\nc1-42\n\x00\x01binary"))
	f.Add(frame("CANCEL\nx"))

	f.Fuzz(func(t *testing.T, data []byte) {
		addr := fuzzServer(t)
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Skip("dial failed; host under load")
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write(data)
		// Half-close the write side where possible so the server sees EOF
		// after the garbage instead of waiting for more.
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		// Drain whatever comes back: any number of well-formed response
		// frames followed by EOF (or an immediate close) is acceptable. The
		// read deadline bounds a server that would wrongly hold the session
		// open forever.
		for {
			payload, err := wire.ReadFrame(conn)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("server neither answered nor closed within deadline")
				}
				return // EOF / reset: clean termination
			}
			if _, err := wire.DecodeResponse(payload); err != nil {
				if _, isWire := err.(*wire.Error); !isWire {
					t.Fatalf("server sent malformed response: %v", err)
				}
			}
		}
	})
}
