package client_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sqlsheet"
	"sqlsheet/internal/client"
	"sqlsheet/internal/server"
	"sqlsheet/internal/wire"
)

// startServer boots a sqlsheetd over a three-row table and returns it; the
// test's cleanup shuts it down. Empty addresses pick free ports.
func startServer(t *testing.T, addr, metricsAddr string) *server.Server {
	t.Helper()
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE tiny (a INT, b TEXT)`)
	db.MustExec(`INSERT INTO tiny VALUES (1, 'x'), (2, 'y'), (3, 'z')`)
	if metricsAddr == "" {
		metricsAddr = "127.0.0.1:0"
	}
	srv := server.New(db, server.Config{Addr: addr, MetricsAddr: metricsAddr})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stop(srv) })
	return srv
}

func stop(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

func TestDialQueryPingClose(t *testing.T) {
	srv := startServer(t, "", "")
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	res, err := c.Query(`SELECT a, b FROM tiny WHERE a >= 2 ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || len(res.Rows) != 2 || res.Rows[0][0].I != 2 || res.Rows[1][1].S != "z" {
		t.Fatalf("unexpected result: cols %v rows %v", res.Cols, res.Rows)
	}

	// A server-side failure is a typed *wire.Error and leaves the session
	// usable. The statement nests past the parser's depth bound.
	_, err = c.Query("SELECT " + strings.Repeat("(", 10000) + "1" + strings.Repeat(")", 10000))
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeParseError || !we.HasPos {
		t.Fatalf("deep statement: got %v, want a positioned PARSE_ERROR", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after an error response: %v", err)
	}

	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := c.Query(`SELECT 1`); err == nil {
		t.Fatal("query on a closed client must fail")
	}

	if _, err := client.DialTimeout("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}
