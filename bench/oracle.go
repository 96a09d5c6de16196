package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"sqlsheet"
	"sqlsheet/internal/types"
)

// The oracle is an embedded engine with the same dataset, serial operators
// and no server in front: the repo's byte-identical contract says its rows
// equal the served rows for any worker count, so a reply is correct exactly
// when its hash equals the oracle's hash for the same statement.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashBytes(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // terminator: ("ab","c") != ("a","bc")
}

func hashWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime
		w >>= 8
	}
	return h
}

func hashValue(h uint64, v types.Value) uint64 {
	h = (h ^ uint64(v.K)) * fnvPrime
	switch v.K {
	case types.KindInt, types.KindBool:
		return hashWord(h, uint64(v.I))
	case types.KindFloat:
		return hashWord(h, math.Float64bits(v.F))
	case types.KindString:
		return hashBytes(h, v.S)
	}
	return h
}

// hashRows fingerprints a result: column names, then every value in row
// order with its kind, floats by their bits.
func hashRows[R ~[]types.Value](cols []string, rows []R) uint64 {
	h := uint64(fnvOffset)
	for _, c := range cols {
		h = hashBytes(h, c)
	}
	for _, row := range rows {
		h = hashWord(h, uint64(len(row)))
		for _, v := range row {
			h = hashValue(h, v)
		}
	}
	return h
}

// chanState is an order-independent fingerprint of one channel's cube rows:
// a count and a wrapping sum of row hashes, so two tables holding the same
// rows in different physical order (concurrent clients interleave) agree.
type chanState struct {
	rows int
	sum  uint64
}

// stateOf groups stateDump rows (c, h, t, p, s) by channel.
func stateOf[R ~[]types.Value](rows []R) map[string]chanState {
	out := map[string]chanState{}
	for _, row := range rows {
		h := uint64(fnvOffset)
		for _, v := range row {
			h = hashValue(h, v)
		}
		st := out[row[1].S]
		st.rows++
		st.sum += h
		out[row[1].S] = st
	}
	return out
}

// newOracle opens an embedded engine with the dataset installed and returns
// how long InstallAPB took (reported as apb.install_s).
func newOracle(scale sqlsheet.APBScale) (*sqlsheet.DB, float64, error) {
	db := sqlsheet.Open()
	db.Configure(sqlsheet.Config{Workers: 1})
	secs, err := timeIt(func() error {
		_, err := db.InstallAPB(scale)
		return err
	})
	return db, secs, err
}

func oracleHash(db *sqlsheet.DB, sql string) (uint64, error) {
	res, err := db.Exec(sql)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w\nstatement: %s", err, sql)
	}
	return hashRows(res.Columns, res.Rows), nil
}

// expectation is what the oracle says a run must have produced.
type expectation struct {
	warm  [][]uint64           // [client][i]
	seq   [][][]uint64         // [round][client][i]
	state map[string]chanState // final cube state per channel
	dbs   []*sqlsheet.DB       // the oracle engines, one per replay
}

// expect computes every statement's expected reply hash and the expected
// final table state.
//
// Read-only workloads never change the tables, so their distinct statements
// are evaluated in any order on all cores. ingest_mixed is replayed per
// client, in that client's order, on an engine of its own: clients own
// disjoint channels and every read is restricted to the reader's channels,
// so a client's replies — and its channels' final rows — do not depend on
// how the server interleaved the two clients.
func expect(w *workload, scale sqlsheet.APBScale) (*expectation, error) {
	e := &expectation{warm: make([][]uint64, w.clients), state: map[string]chanState{}}
	e.seq = make([][][]uint64, len(w.seq))
	for r := range e.seq {
		e.seq[r] = make([][]uint64, w.clients)
	}
	hasWrites := false
	for _, sh := range w.shapes {
		hasWrites = hasWrites || sh.write
	}
	if !hasWrites {
		db, _, err := newOracle(scale)
		if err != nil {
			return nil, err
		}
		e.dbs = []*sqlsheet.DB{db}
		hashes, err := distinctHashes(db, w)
		if err != nil {
			return nil, err
		}
		fill := func(seq []stmt) []uint64 {
			out := make([]uint64, len(seq))
			for i, s := range seq {
				out[i] = hashes[s.sql]
			}
			return out
		}
		for c := 0; c < w.clients; c++ {
			e.warm[c] = fill(w.warm[c])
			for r := range w.seq {
				e.seq[r][c] = fill(w.seq[r][c])
			}
		}
		res, err := db.Query(stateDump)
		if err != nil {
			return nil, err
		}
		e.state = stateOf(res.Rows)
		return e, nil
	}

	e.dbs = make([]*sqlsheet.DB, w.clients)
	states := make([]map[string]chanState, w.clients)
	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = func() error {
				db, _, err := newOracle(scale)
				if err != nil {
					return err
				}
				e.dbs[c] = db
				replay := func(seq []stmt) ([]uint64, error) {
					out := make([]uint64, len(seq))
					for i, s := range seq {
						if out[i], err = oracleHash(db, s.sql); err != nil {
							return nil, err
						}
					}
					return out, nil
				}
				if e.warm[c], err = replay(w.warm[c]); err != nil {
					return err
				}
				for r := range w.seq {
					if e.seq[r][c], err = replay(w.seq[r][c]); err != nil {
						return err
					}
				}
				res, err := db.Query(stateDump)
				if err != nil {
					return err
				}
				states[c] = stateOf(res.Rows)
				return nil
			}()
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Channel i belongs to client i mod clients (see ingestBlock); take each
	// channel's state from its owner's replay.
	for c, st := range states {
		for h, cs := range st {
			var idx int
			if _, err := fmt.Sscanf(h, "chan%d", &idx); err != nil {
				return nil, fmt.Errorf("unexpected channel %q", h)
			}
			if idx%w.clients == c {
				e.state[h] = cs
			}
		}
	}
	return e, nil
}

// distinctHashes evaluates each distinct statement of a read-only workload
// once, on all cores.
func distinctHashes(db *sqlsheet.DB, w *workload) (map[string]uint64, error) {
	var todo []string
	seen := map[string]bool{}
	add := func(per [][]stmt) {
		for _, seq := range per {
			for _, s := range seq {
				if !seen[s.sql] {
					seen[s.sql] = true
					todo = append(todo, s.sql)
				}
			}
		}
	}
	add(w.warm)
	for _, per := range w.seq {
		add(per)
	}
	out := make([]uint64, len(todo))
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(todo) && errs[k] == nil; i += workers {
				out[i], errs[k] = oracleHash(db, todo[i])
			}
		}(k)
	}
	wg.Wait()
	hashes := make(map[string]uint64, len(todo))
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, sql := range todo {
		hashes[sql] = out[i]
	}
	return hashes, nil
}
