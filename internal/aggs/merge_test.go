package aggs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sqlsheet/internal/types"
)

// bitsEqual compares two values at the representation level: kinds, integer
// payloads, exact IEEE-754 float bits (NaN ≡ NaN, +0 ≢ -0) and string bytes.
func bitsEqual(a, b types.Value) bool {
	return a.K == b.K && a.I == b.I &&
		math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// aggCases enumerates every (name, star) accumulator configuration.
func aggCases() []struct {
	name string
	star bool
} {
	return []struct {
		name string
		star bool
	}{
		{"sum", false}, {"count", false}, {"count", true},
		{"avg", false}, {"min", false}, {"max", false}, {"slope", false},
	}
}

// valueStreams builds adversarial input streams: NaN/Inf columns, all-NULL
// columns, signed zeros, int/float ties landing in different morsels,
// dictionary-overflow string populations (> 256 distinct values, the
// colstore dict limit), and large random mixes.
func valueStreams() map[string][][]types.Value {
	rng := rand.New(rand.NewSource(42))
	streams := map[string][][]types.Value{}
	add := func(name string, rows ...[]types.Value) { streams[name] = rows }

	add("empty")
	add("single", []types.Value{types.NewInt(7), types.NewInt(3)})
	add("all-null", func() [][]types.Value {
		var rows [][]types.Value
		for i := 0; i < 97; i++ {
			rows = append(rows, []types.Value{types.Null, types.Null})
		}
		return rows
	}()...)
	add("nan-inf", [][]types.Value{
		{types.NewFloat(math.NaN()), types.NewFloat(1)},
		{types.NewFloat(math.Inf(1)), types.NewFloat(2)},
		{types.NewFloat(math.Inf(-1)), types.NewFloat(math.NaN())},
		{types.NewFloat(0), types.NewFloat(math.Inf(1))},
		{types.NewFloat(math.Copysign(0, -1)), types.NewFloat(3)},
		{types.Null, types.NewFloat(4)},
		{types.NewFloat(math.NaN()), types.NewFloat(math.NaN())},
	}...)
	// An int/float tie (Compare orders 5 and 5.0 equal): first-seen must
	// win after morsel-ordered merging, exactly as in a serial scan.
	add("tie-across-morsels", [][]types.Value{
		{types.NewFloat(5), types.NewInt(1)},
		{types.NewInt(5), types.NewInt(2)},
		{types.NewInt(5), types.NewInt(3)},
		{types.NewFloat(5), types.NewInt(4)},
		{types.NewInt(5), types.NewInt(5)},
	}...)
	add("dict-overflow", func() [][]types.Value {
		var rows [][]types.Value
		for i := 0; i < 600; i++ {
			s := fmt.Sprintf("key-%04d-%s", i%311, strings.Repeat("x", i%17))
			rows = append(rows, []types.Value{types.NewString(s), types.NewInt(int64(i))})
		}
		return rows
	}()...)
	add("random-mix", func() [][]types.Value {
		var rows [][]types.Value
		for i := 0; i < 1000; i++ {
			row := make([]types.Value, 2)
			for j := range row {
				switch rng.Intn(6) {
				case 0:
					row[j] = types.Null
				case 1:
					row[j] = types.NewInt(rng.Int63n(2000) - 1000)
				case 2:
					row[j] = types.NewFloat((rng.Float64() - 0.5) * 1e6)
				case 3:
					row[j] = types.NewFloat(rng.Float64() * 1e-3)
				case 4:
					row[j] = types.NewString(fmt.Sprintf("s%d", rng.Intn(500)))
				default:
					row[j] = types.NewBool(rng.Intn(2) == 0)
				}
			}
			rows = append(rows, row)
		}
		return rows
	}()...)
	return streams
}

const testMorsel = 128 // rows per morsel in the simulations below

// morselFold simulates the parallel group-by over a keyed stream: each
// (morsel, group) pair accumulates its rows in input order, and the partials
// are merged morsel by morsel in the global first-seen group order. With
// adopt, a group's first partial becomes its running state, as execGroupBy
// does; without, every partial is Merge-folded into a fresh accumulator.
// Returns the final per-group results in output row order.
func morselFold(t *testing.T, name string, star bool, keys []int, rows [][]types.Value, adopt bool) ([]int, []types.Value) {
	t.Helper()
	nargs := NumArgs(name)
	type partialKey struct{ morsel, group int }
	partials := map[partialKey]Agg{}
	for i, row := range rows {
		pk := partialKey{i / testMorsel, keys[i]}
		acc, ok := partials[pk]
		if !ok {
			acc, _ = New(name, star)
			partials[pk] = acc
		}
		acc.Add(row[:nargs]...)
	}
	var order []int
	merged := map[int]Agg{}
	nMorsels := (len(rows) + testMorsel - 1) / testMorsel
	for m := 0; m < nMorsels; m++ {
		var firstSeen []int
		seen := map[int]bool{}
		for i := m * testMorsel; i < len(rows) && i < (m+1)*testMorsel; i++ {
			if !seen[keys[i]] {
				seen[keys[i]] = true
				firstSeen = append(firstSeen, keys[i])
			}
		}
		for _, g := range firstSeen {
			p := partials[partialKey{m, g}]
			acc, ok := merged[g]
			if !ok {
				order = append(order, g)
				if adopt {
					merged[g] = p
					continue
				}
				acc, _ = New(name, star)
				merged[g] = acc
			}
			acc.(Merger).Merge(p)
		}
	}
	results := make([]types.Value, len(order))
	for i, g := range order {
		results[i] = merged[g].Result()
	}
	return order, results
}

// TestEveryAggregateMergeCombinable is the parallel group-by's correctness
// property: for every aggregate, adopting a group's first per-morsel partial
// and Merge-folding the later ones in morsel order is bit-identical — exact
// float bits, exact output row order — to Merge-folding every partial into a
// fresh accumulator.
func TestEveryAggregateMergeCombinable(t *testing.T) {
	for sname, rows := range valueStreams() {
		keys := make([]int, len(rows))
		for i := range keys {
			keys[i] = i % 7 // several groups, each spanning several morsels
		}
		for _, c := range aggCases() {
			t.Run(fmt.Sprintf("%s/%s_star=%v", sname, c.name, c.star), func(t *testing.T) {
				if !Mergeable(c.name) {
					t.Fatalf("Mergeable(%q) = false", c.name)
				}
				wantOrder, want := morselFold(t, c.name, c.star, keys, rows, false)
				gotOrder, got := morselFold(t, c.name, c.star, keys, rows, true)
				if len(gotOrder) != len(wantOrder) || len(got) != len(want) {
					t.Fatalf("%d groups, want %d", len(gotOrder), len(wantOrder))
				}
				for i := range want {
					if gotOrder[i] != wantOrder[i] {
						t.Fatalf("output row %d is group %d, want %d (order not preserved)", i, gotOrder[i], wantOrder[i])
					}
					if !bitsEqual(got[i], want[i]) {
						t.Errorf("group %d: got %#v, want %#v", gotOrder[i], got[i], want[i])
					}
				}
			})
		}
	}
}

// TestSerialEqualsMorselFold pins the base contract the merge test builds on:
// on streams whose float sums are exact (integral values, NULLs, strings,
// ties, NaN/Inf propagation), a plain serial Add loop matches the
// morsel-partial fold bit for bit.
func TestSerialEqualsMorselFold(t *testing.T) {
	streams := valueStreams()
	for _, sname := range []string{"empty", "single", "all-null", "nan-inf", "tie-across-morsels", "dict-overflow"} {
		rows := streams[sname]
		for _, c := range aggCases() {
			t.Run(fmt.Sprintf("%s/%s_star=%v", sname, c.name, c.star), func(t *testing.T) {
				serial, err := New(c.name, c.star)
				if err != nil {
					t.Fatal(err)
				}
				nargs := NumArgs(c.name)
				for _, row := range rows {
					serial.Add(row[:nargs]...)
				}
				merged, _ := New(c.name, c.star)
				for lo := 0; lo <= len(rows); lo += testMorsel {
					hi := lo + testMorsel
					if hi > len(rows) {
						hi = len(rows)
					}
					part, _ := New(c.name, c.star)
					for _, row := range rows[lo:hi] {
						part.Add(row[:nargs]...)
					}
					merged.(Merger).Merge(part)
					if hi == len(rows) {
						break
					}
				}
				if got, want := merged.Result(), serial.Result(); !bitsEqual(got, want) {
					t.Errorf("morsel fold: got %#v, want %#v", got, want)
				}
			})
		}
	}
}
