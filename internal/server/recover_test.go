package server_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sqlsheet"
	"sqlsheet/internal/client"
	"sqlsheet/internal/server"
	"sqlsheet/internal/wire"
)

// TestRecoverHelperProcess is not a test: it is the child half of
// TestRecoverKillNineMidBurst. Re-invoked from the parent's test binary
// with the env vars below, it serves a WAL-backed database (fsync-always,
// so every acknowledged statement is durable) and blocks until SIGKILL.
func TestRecoverHelperProcess(t *testing.T) {
	if os.Getenv("SQLSHEETD_RECOVER_CHILD") != "1" {
		t.Skip("helper process for TestRecoverKillNineMidBurst")
	}
	db := sqlsheet.Open()
	if err := db.EnableWAL(os.Getenv("SQLSHEETD_RECOVER_WALDIR"), sqlsheet.SyncAlways); err != nil {
		fmt.Printf("ERR %v\n", err)
		os.Exit(1)
	}
	srv := startServer(t, db, server.Config{MaxInFlight: 8, MaxQueue: 16, QueueWait: time.Second})
	fmt.Printf("ADDR %s\n", srv.Addr())
	select {} // hold the process open until the parent kills it
}

// startChild re-execs this test binary as the helper process and returns
// the command plus the address its server listens on.
func startChild(t *testing.T, walDir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestRecoverHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		"SQLSHEETD_RECOVER_CHILD=1",
		"SQLSHEETD_RECOVER_WALDIR="+walDir,
	)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	deadline := time.After(30 * time.Second)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "ADDR "); ok {
				addrCh <- a
				// Keep draining so the child never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
			if strings.HasPrefix(line, "ERR ") {
				t.Error(line)
			}
		}
	}()
	select {
	case a := <-addrCh:
		return cmd, a
	case <-deadline:
		cmd.Process.Kill()
		t.Fatal("helper process never reported its address")
		return nil, ""
	}
}

// TestRecoverKillNineMidBurst is the crash-recovery acceptance test:
// SIGKILL a WAL-backed server (fsync-always) in the middle of an INSERT
// burst, restart it over the same log directory, and require that the
// recovered table is (a) a contiguous prefix 0..m-1 of the burst with
// m >= the count of acknowledged inserts — durability: nothing acked is
// lost, nothing torn survives — and (b) byte-identical to a fresh database
// that executed the same m statements.
func TestRecoverKillNineMidBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	walDir := t.TempDir()

	cmd, addr := startChild(t, walDir)
	c, err := client.DialTimeout(addr, 5*time.Second)
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	if _, err := c.Query(`CREATE TABLE burst (k INT, v INT)`); err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}

	var acked atomic.Int64
	burstDone := make(chan struct{})
	go func() {
		defer close(burstDone)
		for i := 0; ; i++ {
			if _, err := c.Query(fmt.Sprintf(`INSERT INTO burst VALUES (%d, %d)`, i, i*7)); err != nil {
				return // the kill severed the connection
			}
			acked.Add(1)
		}
	}()

	// Kill mid-burst: once a healthy chunk of inserts is acknowledged, or
	// after a generous deadline on a slow disk (fsync-always pays one sync
	// per statement).
	waitUntil := time.After(20 * time.Second)
	for acked.Load() < 50 {
		select {
		case <-waitUntil:
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	if acked.Load() < 2 {
		cmd.Process.Kill()
		t.Fatalf("only %d inserts acknowledged before deadline", acked.Load())
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	cmd.Wait()
	<-burstDone
	c.Close()
	nAcked := int(acked.Load())
	t.Logf("killed server after %d acknowledged inserts", nAcked)

	// Restart over the same log and read back the recovered table.
	cmd2, addr2 := startChild(t, walDir)
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	c2, err := client.DialTimeout(addr2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res, err := c2.Query(`SELECT k, v FROM burst ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}

	m := len(res.Rows)
	if m < nAcked {
		t.Fatalf("recovered %d rows < %d acknowledged — durable writes were lost", m, nAcked)
	}
	// One unacknowledged in-flight insert may legitimately have reached the
	// log before the kill; anything more means phantom writes.
	if m > nAcked+1 {
		t.Fatalf("recovered %d rows for %d acks — phantom rows appeared", m, nAcked)
	}
	for i, row := range res.Rows {
		if row[0].Int() != int64(i) || row[1].Int() != int64(i*7) {
			t.Fatalf("row %d = (%v, %v), want (%d, %d) — recovered state is not a clean prefix", i, row[0], row[1], i, i*7)
		}
	}

	// Byte-identity: a fresh database executing the same m statements must
	// answer exactly the recovered rows, kind-tagged, over the same codec.
	ref := sqlsheet.Open()
	ref.MustExec(`CREATE TABLE burst (k INT, v INT)`)
	for i := 0; i < m; i++ {
		ref.MustExec(fmt.Sprintf(`INSERT INTO burst VALUES (%d, %d)`, i, i*7))
	}
	want, err := ref.Query(`SELECT k, v FROM burst ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := wire.DecodeResponse(want.Reply())
	if err != nil {
		t.Fatal(err)
	}
	if got, w := canon(res), canon(replayed); got != w {
		t.Fatalf("recovered:\n%s\nreplayed:\n%s", got, w)
	}
}
