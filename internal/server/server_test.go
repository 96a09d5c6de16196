package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlsheet"
	"sqlsheet/internal/client"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/server"
	"sqlsheet/internal/wire"
)

// newFactDB builds the paper's electronics warehouse f(r, p, t, s, c).
func newFactDB(t testing.TB) *sqlsheet.DB {
	t.Helper()
	return fillFactDB(t, sqlsheet.Open())
}

func fillFactDB(t testing.TB, db *sqlsheet.DB) *sqlsheet.DB {
	t.Helper()
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT, c FLOAT)`)
	for _, r := range []string{"west", "east"} {
		for _, p := range []string{"dvd", "vcr", "tv"} {
			for ti := 1992; ti <= 2002; ti++ {
				base := float64(ti - 1990)
				if p == "vcr" {
					base *= 2
				}
				if p == "tv" {
					base *= 3
				}
				if r == "east" {
					base += 100
				}
				if err := db.Insert("f", []any{r, p, ti, base, base / 2}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return db
}

// startServer boots an in-process server on an ephemeral port.
func startServer(t testing.TB, db *sqlsheet.DB, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv := server.New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// canon flattens a wire result into a canonical string for byte-identity
// comparison: column names, derived kinds, and every cell with its kind tag.
func canon(res *wire.Result) string {
	if res == nil {
		return "<nil>"
	}
	var b strings.Builder
	b.WriteString(strings.Join(res.Cols, ","))
	b.WriteByte('\n')
	b.WriteString(strings.Join(res.Kinds, ","))
	b.WriteByte('\n')
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			fmt.Fprintf(&b, "%d:%s", v.K, v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// The statement mix exercised by the concurrency tests: spreadsheet update,
// upsert, aggregate window, and a plain relational query. All carry ORDER BY
// so results are positionally deterministic.
var queryMix = []string{
	`SELECT r, p, t, s FROM f
	   SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
	   ( s['dvd', 2002] = s['dvd', 2000] + s['dvd', 2001],
	     s['tv', 2002] = avg(s)['tv', 1992 <= t <= 2001] )
	   ORDER BY r, p, t`,
	`SELECT r, p, t, s FROM f
	   SPREADSHEET PBY(r) DBY (p, t) MEA (s)
	   ( UPSERT s['video', 2002] = s['tv', 2002] + s['vcr', 2002] )
	   ORDER BY r, p, t`,
	`SELECT r, SUM(s) AS total FROM f GROUP BY r ORDER BY r`,
	`SELECT r, p, t, s FROM f WHERE t >= 2000 ORDER BY r, p, t, s`,
}

// dmlFor returns the round's interleaved write.
func dmlFor(round int) string {
	switch round % 3 {
	case 0:
		return fmt.Sprintf(`INSERT INTO f VALUES ('north', 'dvd', %d, %d.5, 1.0)`, 2003+round, round)
	case 1:
		return fmt.Sprintf(`UPDATE f SET s = s + 1 WHERE t = %d`, 1992+round%10)
	default:
		return fmt.Sprintf(`DELETE FROM f WHERE r = 'north' AND t = %d`, 2003+round-2)
	}
}

// TestServerConcurrentSessions is the acceptance integration test: 32
// concurrent client sessions issue the mixed statement set against one
// server while a reference DB replays the same rounds serially; every
// concurrent result must be byte-identical to the serial replay.
func TestServerConcurrentSessions(t *testing.T) {
	srv := startServer(t, newFactDB(t), server.Config{MaxInFlight: 8, MaxQueue: 64, QueueWait: 30 * time.Second})
	refSrv := startServer(t, newFactDB(t), server.Config{MaxInFlight: 1, MaxQueue: 1})
	ref, err := client.Dial(refSrv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	const sessions = 32
	const rounds = 3

	for round := 0; round < rounds; round++ {
		// Interleaved DML, applied to both sides before the query storm.
		dml := dmlFor(round)
		if _, err := ref.Query(dml); err != nil {
			t.Fatalf("round %d ref dml: %v", round, err)
		}
		dc, err := client.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dc.Query(dml); err != nil {
			t.Fatalf("round %d dml: %v", round, err)
		}
		dc.Close()

		// Serial replay is the oracle for this round.
		want := make([]string, len(queryMix))
		for i, q := range queryMix {
			res, err := ref.Query(q)
			if err != nil {
				t.Fatalf("round %d ref query %d: %v", round, i, err)
			}
			want[i] = canon(res)
		}

		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				c, err := client.Dial(srv.Addr().String())
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				// Stagger the mix so sessions collide on different statements.
				for k := 0; k < len(queryMix); k++ {
					i := (s + k) % len(queryMix)
					res, err := c.Query(queryMix[i])
					if err != nil {
						errs <- fmt.Errorf("session %d query %d: %v", s, i, err)
						return
					}
					if got := canon(res); got != want[i] {
						errs <- fmt.Errorf("session %d query %d: result differs from serial replay\ngot:\n%s\nwant:\n%s",
							s, i, got, want[i])
						return
					}
				}
			}(s)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	if got := srv.Metrics.ConnectionsTotal.Load(); got < sessions {
		t.Errorf("connections_total = %d, want >= %d", got, sessions)
	}
	if got := srv.Metrics.QueriesTotal.Load(); got < int64(sessions*len(queryMix)) {
		t.Errorf("queries_total = %d, want >= %d", got, sessions*len(queryMix))
	}
}

// slowQuery runs long enough to outlive small timeouts but is bounded, and
// every ITERATE pass is a cancellation point.
const slowQuery = `SELECT r, p, t, s FROM f
	SPREADSHEET PBY(r, p) DBY (t) MEA (s) UPDATE ITERATE (30000000)
	( s[2000] = s[2000] * 1.0000001 )
	ORDER BY r, p, t`

// TestQueryTimeout verifies server-side cancellation: a query exceeding the
// per-query timeout comes back as a typed TIMEOUT error, the cancellation is
// visible in the timeout counter, and other sessions are unaffected.
func TestQueryTimeout(t *testing.T) {
	srv := startServer(t, newFactDB(t), server.Config{
		MaxInFlight: 4, MaxQueue: 8, QueryTimeout: 100 * time.Millisecond,
	})

	var wg sync.WaitGroup
	wg.Add(1)
	okErr := make(chan error, 1)
	go func() {
		// A healthy session running quick queries throughout.
		defer wg.Done()
		c, err := client.Dial(srv.Addr().String())
		if err != nil {
			okErr <- err
			return
		}
		defer c.Close()
		for i := 0; i < 10; i++ {
			if _, err := c.Query(`SELECT r, SUM(s) AS total FROM f GROUP BY r ORDER BY r`); err != nil {
				okErr <- fmt.Errorf("healthy session: %v", err)
				return
			}
		}
		okErr <- nil
	}()

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Query(slowQuery)
	elapsed := time.Since(start)
	we, ok := err.(*wire.Error)
	if !ok || we.Code != wire.CodeTimeout {
		t.Fatalf("slow query: got %v, want TIMEOUT", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; cancellation points too coarse", elapsed)
	}
	if got := srv.Metrics.QueryTimeouts.Load(); got != 1 {
		t.Errorf("query_timeouts = %d, want 1", got)
	}
	wg.Wait()
	if err := <-okErr; err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionOverload induces overload: with one execution slot and a
// one-deep queue, a burst of slow queries must produce typed SERVER_BUSY
// rejections rather than stalls, counted by the admission-rejection metric.
func TestAdmissionOverload(t *testing.T) {
	srv := startServer(t, newFactDB(t), server.Config{
		MaxInFlight: 1, MaxQueue: 1, QueueWait: 50 * time.Millisecond,
		QueryTimeout: 2 * time.Second,
	})

	const burst = 6
	var busy, timedOut, okCount int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			_, err = c.Query(slowQuery)
			mu.Lock()
			defer mu.Unlock()
			switch we, ok := err.(*wire.Error); {
			case err == nil:
				okCount++
			case ok && we.Code == wire.CodeServerBusy:
				busy++
			case ok && we.Code == wire.CodeTimeout:
				timedOut++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if busy == 0 {
		t.Errorf("no SERVER_BUSY under overload (ok=%d busy=%d timeout=%d)", okCount, busy, timedOut)
	}
	if got := srv.Metrics.AdmissionRejected.Load(); got != int64(busy) {
		t.Errorf("admission_rejected = %d, want %d", got, busy)
	}
}

// TestParseErrorOverWire checks that a syntax error carries its position and
// offending token through the protocol.
func TestParseErrorOverWire(t *testing.T) {
	srv := startServer(t, newFactDB(t), server.Config{})
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query("SELECT r\nFROM f\nWHERE t BETWIXT 1 AND 2")
	we, ok := err.(*wire.Error)
	if !ok {
		t.Fatalf("got %T %v, want *wire.Error", err, err)
	}
	if we.Code != wire.CodeParseError {
		t.Fatalf("code = %s, want PARSE_ERROR", we.Code)
	}
	if !we.HasPos || we.Line != 3 || we.Token == "" {
		t.Errorf("position not carried: %+v", we)
	}
	if got := srv.Metrics.ParseErrors.Load(); got != 1 {
		t.Errorf("parse_errors = %d, want 1", got)
	}
}

// TestUnknownRequestIsProtocolError sends request kinds the protocol does not
// have — among them the retired SUBPLAN and CANCEL verbs — on fresh
// sessions: each is answered with PROTOCOL_ERROR and counted in
// protocol_errors, its session closes, and a session opened before them
// keeps serving.
func TestUnknownRequestIsProtocolError(t *testing.T) {
	srv := startServer(t, newFactDB(t), server.Config{})
	other, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	reqs := []string{"BOGUS\nstuff", "SUBPLAN\nc1-42\n\x00\x01binary", "CANCEL\nx"}
	for i, req := range reqs {
		conn, err := net.DialTimeout("tcp", srv.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := wire.WriteFrame(conn, []byte(req)); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("%q: no answer: %v", req, err)
		}
		_, err = wire.DecodeResponse(payload)
		if we, ok := err.(*wire.Error); !ok || we.Code != wire.CodeProtocolError {
			t.Fatalf("%q: got %v, want PROTOCOL_ERROR", req, err)
		}
		if _, err := wire.ReadFrame(conn); err == nil {
			t.Fatalf("%q: session still open after a protocol error", req)
		}
		conn.Close()
		if got := srv.Metrics.ProtocolErrors.Load(); got != int64(i+1) {
			t.Fatalf("%q: protocol_errors = %d, want %d", req, got, i+1)
		}
		res, err := other.Query(`SELECT COUNT(*) FROM f`)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 66 {
			t.Fatalf("other session after %q: rows %v, err %v", req, res, err)
		}
	}
}

// TestBackToBackFramesAnswerInOrder writes a session's requests back to back
// before reading anything: the server answers each, in the order sent.
func TestBackToBackFramesAnswerInOrder(t *testing.T) {
	srv := startServer(t, newFactDB(t), server.Config{})
	conn, err := net.DialTimeout("tcp", srv.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	const n = 20
	for i := 0; i < n; i++ {
		req := wire.EncodeQuery(fmt.Sprintf(`SELECT COUNT(*) + %d FROM f`, i))
		if i%5 == 4 {
			req = []byte(wire.ReqPing)
		}
		if err := wire.WriteFrame(conn, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		res, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if i%5 == 4 {
			if res != nil { // PONG carries no result
				t.Fatalf("response %d: want the PING's reply, got rows %v", i, res.Rows)
			}
			continue
		}
		if res == nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(66+i) {
			t.Fatalf("response %d: %v, want [[%d]]", i, res, 66+i)
		}
	}
}

// TestOperatorChainOverWire is the wire-side half of the root package's
// TestOperatorChainBound: a 4,000-term a+1+1+… is answered and a
// 100,000-term one is refused as a parse error by the depth bound, each in
// 250 ms or — under the race detector or on a loaded host — a small multiple
// of a linear reference (the same statement at 250 terms; tokenizing alone).
func TestOperatorChainOverWire(t *testing.T) {
	srv := startServer(t, newFactDB(t), server.Config{})
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	chain := func(terms int) string {
		return "SELECT t" + strings.Repeat("+1", terms) + " FROM f WHERE r = 'west' AND p = 'dvd' AND t = 1992"
	}
	timed := func(sql string) (*wire.Result, error, time.Duration) {
		start := time.Now()
		res, err := c.Query(sql)
		return res, err, time.Since(start)
	}
	if _, err, _ := timed(chain(250)); err != nil {
		t.Fatal(err)
	}
	_, _, ref := timed(chain(251))
	res, err, took := timed(chain(4000))
	if err != nil {
		t.Fatalf("4000 terms: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1992+4000 {
		t.Fatalf("4000 terms: got %v", res.Rows)
	}
	if took > 250*time.Millisecond && took > 48*ref {
		t.Errorf("4000 terms took %v (251 terms: %v), want < 250ms", took, ref)
	}

	deep := chain(100000)
	start := time.Now()
	if _, err := parser.Fingerprint(deep); err != nil {
		t.Fatal(err)
	}
	lexTime := time.Since(start)
	_, err, took = timed(deep)
	we, ok := err.(*wire.Error)
	// errors.Is(err, parser.ErrTooDeep) does not cross the wire; the
	// message of the *parser.Error that wraps it does.
	if !ok || we.Code != wire.CodeParseError || !strings.Contains(we.Msg, "nesting deeper than") {
		t.Fatalf("100000 terms: got %v, want the depth bound's PARSE_ERROR", err)
	}
	if took > 250*time.Millisecond && took > 6*lexTime {
		t.Errorf("100000 terms refused in %v (tokenizing alone %v), want < 250ms", took, lexTime)
	}
}

// TestMetricsEndpoint drives a little traffic and checks that /metrics and
// /healthz reflect it.
func TestMetricsEndpoint(t *testing.T) {
	srv := startServer(t, newFactDB(t), server.Config{MetricsAddr: "127.0.0.1:0"})
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	q := `SELECT r, SUM(s) AS total FROM f GROUP BY r ORDER BY r`
	for i := 0; i < 3; i++ {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query("SELECT nonsense FROM nowhere"); err == nil {
		t.Fatal("expected exec error")
	}

	resp, err := http.Get("http://" + srv.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ConnectionsTotal < 1 || snap.ConnectionsActive < 1 {
		t.Errorf("connection counters: %+v", snap)
	}
	if snap.QueriesTotal != 4 {
		t.Errorf("queries_total = %d, want 4", snap.QueriesTotal)
	}
	if snap.ExecErrors != 1 {
		t.Errorf("exec_errors = %d, want 1", snap.ExecErrors)
	}
	if snap.Latency.Count != 4 {
		t.Errorf("latency count = %d, want 4", snap.Latency.Count)
	}
	// Three identical SELECTs: at least one should have come from the
	// plan/result cache, proving the re-export works end to end. Every result
	// hit but the first is answered with the reply stored on that first one.
	if snap.Cache.PlanHits+snap.Cache.ResultHits < 1 {
		t.Errorf("cache counters not re-exported: %+v", snap.Cache)
	}
	if snap.Cache.ResultHits < 1 || snap.Cache.ReplyHits != snap.Cache.ResultHits-1 {
		t.Errorf("reply_hits = %d with result_hits = %d, want result_hits - 1", snap.Cache.ReplyHits, snap.Cache.ResultHits)
	}

	health, err := http.Get("http://" + srv.MetricsAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", health.StatusCode)
	}
}

// TestMetricsImages: on a WAL-backed server, INSERT → SELECT → INSERT →
// SELECT builds the fact table's columnar image in full once — for the first
// SELECT, on the image the table had when its row slice last moved — and
// derives every image after that from its predecessor's; /metrics says so.
func TestMetricsImages(t *testing.T) {
	db := sqlsheet.Open()
	if err := db.EnableWAL(t.TempDir(), sqlsheet.SyncGroup); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := startServer(t, fillFactDB(t, db), server.Config{MetricsAddr: "127.0.0.1:0"})
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	images := func() server.ImagesSnapshot {
		t.Helper()
		resp, err := http.Get("http://" + srv.MetricsAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap server.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		if snap.WAL == nil || snap.WAL.Appends == 0 {
			t.Errorf("wal section missing: %+v", snap.WAL)
		}
		return snap.Images
	}
	run := func(stmt string) {
		t.Helper()
		if _, err := c.Query(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	run(`INSERT INTO f VALUES ('north', 'dvd', 2003, 1, 2), ('north', 'tv', 2003, 3, 4)`)
	run(`SELECT r, SUM(s) AS total FROM f WHERE p = 'dvd' GROUP BY r ORDER BY r`)
	first := images()
	if first.FullBuilds != 1 || first.Fallbacks["no-lineage"] != 1 || len(first.Fallbacks) != 5 {
		t.Errorf("after the first SELECT images = %+v, want one full build, under no-lineage, and all five reasons listed", first)
	}
	run(`INSERT INTO f VALUES ('north', 'vcr', 2003, 5, 6)`)
	run(`SELECT r, SUM(s) AS total FROM f WHERE p = 'vcr' GROUP BY r ORDER BY r`)
	second := images()
	if second.FullBuilds != 1 || second.Derived != first.Derived+1 || second.DerivedRows != first.DerivedRows+1 {
		t.Errorf("after INSERT and SELECT images went %+v → %+v, want no full build and one derivation of the one inserted row", first, second)
	}
}

// TestGracefulShutdown verifies drain: in-flight quick queries finish, new
// queries after drain get SHUTDOWN or a closed connection.
func TestGracefulShutdown(t *testing.T) {
	db := newFactDB(t)
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(`SELECT r, SUM(s) AS total FROM f GROUP BY r ORDER BY r`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()

	// The still-open session either gets a typed SHUTDOWN answer or the
	// connection closes under it; both are clean outcomes.
	_, err = c.Query(`SELECT 1 AS one FROM f WHERE t = 1992 ORDER BY r, p`)
	if we, ok := err.(*wire.Error); ok && we.Code != wire.CodeShutdown {
		t.Errorf("post-drain query: unexpected typed error %v", we)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := client.Dial(srv.Addr().String()); err == nil {
		t.Error("dial after shutdown should fail")
	}
}

// TestLiteralCannotStandForTokensOverWire: one client's statement text must
// never be answered with another's parse. A string literal holding the bytes
// the fingerprint once used to separate tokens was answered with the columns
// of the statement those bytes spelled.
func TestLiteralCannotStandForTokensOverWire(t *testing.T) {
	srv := startServer(t, newFactDB(t), server.Config{})
	a, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 3; i++ { // miss, first hit, stored reply
		if res, err := a.Query(`SELECT 'a', 'b' FROM f WHERE t = 1992 AND r = 'west' AND p = 'dvd'`); err != nil || len(res.Cols) != 2 {
			t.Fatalf("two literals: %v, %v", res, err)
		}
	}
	res, err := b.Query("SELECT 'a\x00\x04,\x00\x03b' FROM f WHERE t = 1992 AND r = 'west' AND p = 'dvd'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || len(res.Rows) != 1 || res.Rows[0][0].String() != "a\x00\x04,\x00\x03b" {
		t.Fatalf("one literal answered with columns %q and rows %v", res.Cols, res.Rows)
	}
}

// TestReplyUnderConcurrentWrites: eight sessions repeat one statement while
// a writer moves its table through a series of versions. Whatever the
// interleaving of stored replies, attaches, invalidations and re-executions,
// every reply must be the reply of some published version. Run under -race
// via `make race`.
func TestReplyUnderConcurrentWrites(t *testing.T) {
	const versions, sessions, queries = 12, 8, 60
	q := `SELECT r, p, SUM(s) AS total, COUNT(*) AS n FROM f GROUP BY r, p ORDER BY r, p`
	write := func(v int) string { return fmt.Sprintf(`UPDATE f SET s = s + %d WHERE t = %d`, v, 1992+v%10) }

	// The reply of every version, replayed serially.
	ref := newFactDB(t)
	want := map[string]bool{}
	for v := 0; v <= versions; v++ {
		if v > 0 {
			ref.MustExec(write(v))
		}
		res, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := wire.DecodeResponse(res.Reply())
		if err != nil {
			t.Fatal(err)
		}
		want[canon(r)] = true
	}

	srv := startServer(t, newFactDB(t), server.Config{MaxInFlight: 8, MaxQueue: 64, QueueWait: 30 * time.Second})
	var wg, ready sync.WaitGroup
	var mu sync.Mutex
	seen := map[string]bool{}
	errs := make(chan error, sessions+1)
	done := make(chan struct{})
	ready.Add(sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String())
			if err != nil {
				ready.Done()
				errs <- err
				return
			}
			defer c.Close()
			// Each session answers once before the writer starts and keeps
			// going until it has answered queries times and the writer is done.
			for i := 0; ; i++ {
				res, err := c.Query(q)
				if i == 0 {
					ready.Done()
				}
				if err != nil {
					errs <- fmt.Errorf("session %d query %d: %v", s, i, err)
					return
				}
				got := canon(res)
				if !want[got] {
					errs <- fmt.Errorf("session %d query %d: reply matches no published version:\n%s", s, i, got)
					return
				}
				mu.Lock()
				seen[got] = true
				mu.Unlock()
				select {
				case <-done:
					if i >= queries {
						return
					}
				default:
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		ready.Wait()
		c, err := client.Dial(srv.Addr().String())
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		for v := 1; v <= versions; v++ {
			if _, err := c.Query(write(v)); err != nil {
				errs <- fmt.Errorf("version %d: %v", v, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Errorf("sessions saw %d version(s); the writer did not overlap them", len(seen))
	}
}
