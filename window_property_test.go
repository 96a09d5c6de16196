package sqlsheet_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sqlsheet"
)

// TestWindowOracleProperty checks the window executor against a naive Go
// reimplementation on random data: cumulative SUM, RANK and LAG over a
// random partitioning.
func TestWindowOracleProperty(t *testing.T) {
	type rec struct {
		g, t int
		v    float64
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		recs := make([]rec, n)
		db := sqlsheet.Open()
		db.MustExec(`CREATE TABLE w (g INT, t INT, v FLOAT, id INT)`)
		for i := range recs {
			recs[i] = rec{g: rng.Intn(3), t: rng.Intn(10), v: float64(rng.Intn(20))}
			db.MustExec(fmt.Sprintf(`INSERT INTO w VALUES (%d, %d, %g, %d)`,
				recs[i].g, recs[i].t, recs[i].v, i))
		}
		res, err := db.Query(`
			SELECT id,
			       sum(v) OVER (PARTITION BY g ORDER BY t, id) cume,
			       rank() OVER (PARTITION BY g ORDER BY t) rk,
			       lag(v) OVER (PARTITION BY g ORDER BY t, id) prev
			FROM w`)
		if err != nil {
			t.Log(err)
			return false
		}
		got := map[int64][3]sqlsheet.Value{}
		for _, row := range res.Rows {
			got[row[0].Int()] = [3]sqlsheet.Value{row[1], row[2], row[3]}
		}
		// Naive oracle.
		for g := 0; g < 3; g++ {
			var idx []int
			for i, r := range recs {
				if r.g == g {
					idx = append(idx, i)
				}
			}
			sort.SliceStable(idx, func(a, b int) bool {
				if recs[idx[a]].t != recs[idx[b]].t {
					return recs[idx[a]].t < recs[idx[b]].t
				}
				return idx[a] < idx[b]
			})
			cume := 0.0
			for k, i := range idx {
				cume += recs[i].v
				w := got[int64(i)]
				if math.Abs(w[0].Float()-cume) > 1e-9 {
					t.Logf("seed %d: cume id=%d got %v want %g", seed, i, w[0], cume)
					return false
				}
				// rank: 1 + count of rows with strictly smaller t.
				rk := 1
				for _, j := range idx {
					if recs[j].t < recs[i].t {
						rk++
					}
				}
				if w[1].Int() != int64(rk) {
					t.Logf("seed %d: rank id=%d got %v want %d", seed, i, w[1], rk)
					return false
				}
				if k == 0 {
					if !w[2].IsNull() {
						t.Logf("seed %d: first lag id=%d got %v", seed, i, w[2])
						return false
					}
				} else if math.Abs(w[2].Float()-recs[idx[k-1]].v) > 1e-9 {
					t.Logf("seed %d: lag id=%d got %v want %g", seed, i, w[2], recs[idx[k-1]].v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSlidingFrameMatchesRecompute: a sliding frame's value is exactly the
// sum over its rows, added in partition order — nothing left the frame by
// subtraction.
func TestSlidingFrameMatchesRecompute(t *testing.T) {
	f := func(seed int64, width uint8) bool {
		w := int(width%5) + 1
		rng := rand.New(rand.NewSource(seed))
		db := sqlsheet.Open()
		db.MustExec(`CREATE TABLE s (t INT, v FLOAT)`)
		n := 20
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = rng.Float64() * 100
			db.MustExec(fmt.Sprintf(`INSERT INTO s VALUES (%d, %g)`, i, vals[i]))
		}
		res, err := db.Query(fmt.Sprintf(`
			SELECT t,
			       sum(v) OVER (ORDER BY t ROWS BETWEEN %d PRECEDING AND CURRENT ROW) sw,
			       avg(v) OVER (ORDER BY t ROWS BETWEEN %d PRECEDING AND 1 FOLLOWING) aw
			FROM s ORDER BY t`, w, w))
		if err != nil {
			t.Log(err)
			return false
		}
		for k, row := range res.Rows {
			lo := k - w
			if lo < 0 {
				lo = 0
			}
			sum := 0.0
			for i := lo; i <= k; i++ {
				sum += vals[i]
			}
			if row[1].Float() != sum {
				t.Logf("seed %d w %d: sum[%d] got %v want %g", seed, w, k, row[1], sum)
				return false
			}
			hi := k + 1
			if hi > n-1 {
				hi = n - 1
			}
			asum, cnt := 0.0, 0
			for i := lo; i <= hi; i++ {
				asum += vals[i]
				cnt++
			}
			if row[2].Float() != asum/float64(cnt) {
				t.Logf("seed %d w %d: avg[%d] got %v want %g", seed, w, k, row[2], asum/float64(cnt))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
