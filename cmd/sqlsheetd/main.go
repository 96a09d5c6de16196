// Command sqlsheetd serves the spreadsheet-SQL engine over TCP using the
// framed wire protocol, with bounded admission, per-query timeouts, and an
// HTTP metrics endpoint.
//
// Usage:
//
//	sqlsheetd -addr :7433 -metrics-addr :7434
//	sqlsheetd -f init.sql -apb -query-timeout 30s
//
// SIGINT/SIGTERM triggers a graceful drain: the listener closes, in-flight
// queries finish (up to -drain-timeout), stragglers are cancelled through
// the engine's cancellation points.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sqlsheet"
	"sqlsheet/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7433", "query protocol listen address")
	metricsAddr := flag.String("metrics-addr", "127.0.0.1:7434", "HTTP /metrics + /healthz address (empty disables)")
	file := flag.String("f", "", "run the given SQL script before serving (schema/data setup)")
	apb := flag.Bool("apb", false, "preload the APB benchmark dataset")
	parallel := flag.Int("parallel", 0, "spreadsheet degree of parallelism")
	workers := flag.Int("workers", 1, "operator worker-pool size (0 = all cores, 1 = serial)")
	maxInFlight := flag.Int("max-inflight", 8, "max concurrently executing queries")
	maxQueue := flag.Int("max-queue", 16, "max queries waiting for admission")
	queueWait := flag.Duration("queue-wait", time.Second, "max admission wait before SERVER_BUSY")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful drain window on shutdown")
	walDir := flag.String("wal-dir", "", "write-ahead log directory; enables crash-safe durability and replays any existing log before serving")
	fsync := flag.String("fsync", "group", "WAL durability: group (coalesced post-apply fsync), always (fsync before apply), none")
	flag.Parse()

	db := sqlsheet.Open()
	if *parallel > 0 || *workers != 1 {
		cfg := db.Options()
		cfg.Parallel = *parallel
		cfg.Workers = *workers
		db.Configure(cfg)
	}
	if *walDir != "" {
		mode, err := sqlsheet.ParseSyncMode(*fsync)
		if err != nil {
			fatal(err)
		}
		if err := db.EnableWAL(*walDir, mode); err != nil {
			fatal(err)
		}
		if c, ok := db.WALCounters(); ok && c.Replayed > 0 {
			fmt.Printf("wal: recovered %d records from %s\n", c.Replayed, *walDir)
			// Setup flags already ran on the first boot and were logged;
			// re-running them against recovered state would double-load.
			if *apb || *file != "" {
				fmt.Println("wal: skipping -apb/-f setup (state recovered from log)")
				*apb, *file = false, ""
			}
		}
	}
	if *apb {
		info, err := db.InstallAPB(sqlsheet.APBScale{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded APB dataset: %d cube rows, %d fact rows\n", info.CubeRows, info.FactRows)
	}
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		if _, err := db.Exec(string(data)); err != nil {
			fatal(err)
		}
	}

	srv := server.New(db, server.Config{
		Addr:         *addr,
		MetricsAddr:  *metricsAddr,
		MaxInFlight:  *maxInFlight,
		MaxQueue:     *maxQueue,
		QueueWait:    *queueWait,
		QueryTimeout: *queryTimeout,
	})
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	fmt.Printf("sqlsheetd listening on %s", srv.Addr())
	if m := srv.MetricsAddr(); m != "" {
		fmt.Printf(" (metrics on http://%s/metrics)", m)
	}
	fmt.Println()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("sqlsheetd: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.Shutdown(ctx)
	fmt.Println("sqlsheetd: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sqlsheetd:", err)
	os.Exit(1)
}
