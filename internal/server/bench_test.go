package server_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sqlsheet/internal/client"
	"sqlsheet/internal/server"
)

// benchQuery is a representative spreadsheet statement: partitioned, two
// rules, cacheable.
const benchQuery = `SELECT r, p, t, s FROM f
	SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
	( s['dvd', 2002] = s['dvd', 2000] + s['dvd', 2001],
	  s['tv', 2002] = avg(s)['tv', 1992 <= t <= 2001] )
	ORDER BY r, p, t`

// BenchmarkServe measures end-to-end serving throughput (dial once, then
// query round-trips) at 1, 8 and 64 concurrent client sessions, with the
// serving-path cache cold (plan cache disabled) and warm (result reuse).
func BenchmarkServe(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		for _, mode := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("clients=%d/%s", clients, mode), func(b *testing.B) {
				db := newFactDB(b)
				if mode == "cold" {
					cfg := db.Options()
					cfg.Ablate.DisablePlanCache = true
					db.Configure(cfg)
				}
				srv := startServer(b, db, server.Config{
					MaxInFlight: 16, MaxQueue: 128, QueueWait: 30 * time.Second,
				})
				conns := make([]*client.Client, clients)
				for i := range conns {
					c, err := client.Dial(srv.Addr().String())
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					conns[i] = c
					// Warm-up round-trip (fills the cache in warm mode).
					if _, err := c.Query(benchQuery); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / clients
				extra := b.N % clients
				for i, c := range conns {
					n := per
					if i < extra {
						n++
					}
					wg.Add(1)
					go func(c *client.Client, n int) {
						defer wg.Done()
						for j := 0; j < n; j++ {
							if _, err := c.Query(benchQuery); err != nil {
								b.Error(err)
								return
							}
						}
					}(c, n)
				}
				wg.Wait()
			})
		}
	}
}
