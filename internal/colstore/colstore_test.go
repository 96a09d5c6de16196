package colstore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sqlsheet/internal/types"
)

// randValue draws a value from a distribution that covers every
// representation the column builder can choose: NULLs, small and extreme
// ints, integral and fractional floats (including NaN, ±Inf, and the int64
// normalization boundary), low-cardinality strings, and booleans.
func randValue(rng *rand.Rand) types.Value {
	switch rng.Intn(12) {
	case 0:
		return types.Null
	case 1:
		return types.NewInt(rng.Int63() - rng.Int63())
	case 2:
		return types.NewInt(int64(rng.Intn(10)))
	case 3:
		return types.NewFloat(rng.NormFloat64())
	case 4:
		return types.NewFloat(float64(rng.Intn(100))) // integral float
	case 5:
		switch rng.Intn(4) {
		case 0:
			return types.NewFloat(math.NaN())
		case 1:
			return types.NewFloat(math.Inf(1))
		case 2:
			return types.NewFloat(math.Inf(-1))
		default:
			return types.NewFloat(float64(math.MaxInt64)) // normalization edge
		}
	case 6:
		return types.NewString(fmt.Sprintf("s%d", rng.Intn(8)))
	case 7:
		return types.NewString("")
	case 8:
		return types.NewBool(rng.Intn(2) == 0)
	default:
		return types.NewInt(int64(rng.Intn(1000)))
	}
}

// randTypedColumnRows draws a column of one kind (a column's only
// representable shape); pNull controls NULL density.
func randTypedColumnRows(rng *rand.Rand, n int, kind types.Kind, pNull float64) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		if rng.Float64() < pNull {
			out[i] = types.Null
			continue
		}
		switch kind {
		case types.KindInt:
			out[i] = types.NewInt(rng.Int63() - rng.Int63())
		case types.KindFloat:
			if rng.Intn(3) == 0 {
				out[i] = types.NewFloat(float64(rng.Intn(50)))
			} else {
				out[i] = types.NewFloat(rng.NormFloat64())
			}
		case types.KindString:
			out[i] = types.NewString(fmt.Sprintf("v%d", rng.Intn(16)))
		case types.KindBool:
			out[i] = types.NewBool(rng.Intn(2) == 0)
		}
	}
	return out
}

func colFromValues(t *testing.T, vals []types.Value) *Column {
	t.Helper()
	rows := make([]types.Row, len(vals))
	for i, v := range vals {
		rows[i] = types.Row{v}
	}
	tbl := FromRows(1, rows)
	if tbl == nil {
		t.Fatal("FromRows returned nil for rectangular rows")
	}
	return tbl.Cols[0]
}

// TestValueRoundTrip: Column.Value(i) must reconstruct exactly the value the
// source row held, for every representation the builder picks.
func TestValueRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]types.Value{
		randTypedColumnRows(rng, 300, types.KindInt, 0),
		randTypedColumnRows(rng, 300, types.KindInt, 0.3),
		randTypedColumnRows(rng, 300, types.KindFloat, 0.3),
		randTypedColumnRows(rng, 300, types.KindString, 0.3),
		randTypedColumnRows(rng, 300, types.KindBool, 0.3),
		make([]types.Value, 100), // all-null
	}
	for ci, vals := range cases {
		c := colFromValues(t, vals)
		for i, want := range vals {
			got := c.Value(i)
			// NaN != NaN under ==; compare bit patterns for floats.
			if got.K != want.K || got.I != want.I || got.S != want.S ||
				math.Float64bits(got.F) != math.Float64bits(want.F) {
				t.Fatalf("case %d row %d: Value()=%#v want %#v", ci, i, got, want)
			}
			if c.IsNull(i) != want.IsNull() {
				t.Fatalf("case %d row %d: IsNull mismatch", ci, i)
			}
		}
	}
}

// TestAppendKeyMatchesTypes: Column.AppendKey must be byte-identical to
// types.AppendKey over the boxed value, including the integral-float-to-int
// normalization that join and group-by key encoding depend on.
func TestAppendKeyMatchesTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool}
	for _, kind := range kinds {
		for _, pNull := range []float64{0, 0.4} {
			vals := randTypedColumnRows(rng, 500, kind, pNull)
			c := colFromValues(t, vals)
			for i, v := range vals {
				want := types.AppendKey(nil, v)
				got := c.AppendKey(nil, i)
				if !bytes.Equal(got, want) {
					t.Fatalf("kind %v row %d (%v): key %x want %x", kind, i, v, got, want)
				}
			}
		}
	}
	// All-null columns have no vector at all.
	nulls := make([]types.Value, 50)
	c := colFromValues(t, nulls)
	for i, v := range nulls {
		if got, want := c.AppendKey(nil, i), types.AppendKey(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("row %d (%v): key %x want %x", i, v, got, want)
		}
	}
	// Dictionary overflow: past DictMaxEntries the builder switches to plain
	// string storage mid-column; key encoding must not change across the
	// representation boundary.
	over := make([]types.Value, 0, 2*(DictMaxEntries+500))
	for i := 0; i < DictMaxEntries+500; i++ {
		over = append(over, types.NewString(fmt.Sprintf("u%d", i))) // distinct
		if rng.Intn(13) == 0 {
			over = append(over, types.Null)
		}
		if rng.Intn(3) == 0 {
			over = append(over, types.NewString(fmt.Sprintf("hot%d", rng.Intn(7)))) // repeats
		}
	}
	oc := colFromValues(t, over)
	if oc.IsDict() {
		t.Fatalf("expected dict overflow at %d distinct strings", len(over))
	}
	for i, v := range over {
		if got, want := oc.AppendKey(nil, i), types.AppendKey(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("overflow row %d (%v): key %x want %x", i, v, got, want)
		}
	}
}

// TestDictOverflow: a string column whose cardinality exceeds DictMaxEntries
// must abandon the dictionary and store plain strings, losslessly.
func TestDictOverflow(t *testing.T) {
	n := DictMaxEntries + 1000 // distinct non-NULL strings must exceed the cap
	vals := make([]types.Value, n)
	for i := range vals {
		if i%97 == 0 {
			vals[i] = types.Null
		} else {
			vals[i] = types.NewString(fmt.Sprintf("u%d", i))
		}
	}
	c := colFromValues(t, vals)
	if c.IsDict() {
		t.Fatalf("expected dictionary overflow to plain strings at %d entries", n)
	}
	if c.Strs == nil {
		t.Fatal("plain string vector not populated after overflow")
	}
	for i, v := range vals {
		if c.IsNull(i) != v.IsNull() {
			t.Fatalf("row %d: IsNull mismatch", i)
		}
		if !v.IsNull() && c.Str(i) != v.S {
			t.Fatalf("row %d: Str()=%q want %q", i, c.Str(i), v.S)
		}
	}
}

// TestDictEncoding: a low-cardinality column stays dictionary-encoded and
// DictCode agrees with the stored codes.
func TestDictEncoding(t *testing.T) {
	vals := []types.Value{
		types.NewString("a"), types.NewString("b"), types.Null,
		types.NewString("a"), types.NewString(""), types.NewString("b"),
	}
	c := colFromValues(t, vals)
	if !c.IsDict() {
		t.Fatal("expected dictionary encoding")
	}
	if len(c.Dict) != 3 { // "a", "b", ""
		t.Fatalf("dict size %d want 3", len(c.Dict))
	}
	for _, s := range []string{"a", "b", ""} {
		code, ok := c.DictCode(s)
		if !ok {
			t.Fatalf("DictCode(%q) missing", s)
		}
		if c.Dict[code] != s {
			t.Fatalf("DictCode(%q)=%d maps to %q", s, code, c.Dict[code])
		}
	}
	if _, ok := c.DictCode("zzz"); ok {
		t.Fatal("DictCode matched absent string")
	}
}

// TestMixedKindsAreNotRepresentable: a column whose values mix kinds —
// INT beside FLOAT included — has no columnar form, whichever builder is
// asked; NULLs mix with any one kind.
func TestMixedKindsAreNotRepresentable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	random := make([]types.Value, 300)
	for i := range random {
		random[i] = randValue(rng)
	}
	cases := [][]types.Value{
		random,
		{types.NewInt(1), types.NewFloat(2.5)},
		{types.Null, types.NewString("a"), types.Null, types.NewBool(true)},
	}
	for ci, vals := range cases {
		rows := make([]types.Row, len(vals))
		for i, v := range vals {
			rows[i] = types.Row{types.NewInt(int64(i)), v}
		}
		if FromRows(2, rows) != nil {
			t.Errorf("case %d: FromRows built an image of a mixed column", ci)
		}
		for _, dict := range []bool{true, false} {
			if FromValues(vals, dict) != nil {
				t.Errorf("case %d: FromValues(dict=%v) represented a mixed column", ci, dict)
			}
		}
	}
	one := []types.Value{types.Null, types.NewFloat(1), types.Null, types.NewFloat(2.5)}
	if c := FromValues(one, true); c == nil || c.Kind != types.KindFloat || !c.IsNull(0) {
		t.Errorf("FLOAT with NULLs: %+v", c)
	}
}

// TestFromRowsRagged: ragged row sets have no columnar image.
func TestFromRowsRagged(t *testing.T) {
	rows := []types.Row{{types.NewInt(1), types.NewInt(2)}, {types.NewInt(3)}}
	if FromRows(2, rows) != nil {
		t.Fatal("FromRows accepted ragged rows")
	}
	if tbl := FromRows(0, nil); tbl == nil || tbl.NRows != 0 {
		t.Fatal("FromRows rejected empty relation")
	}
}

func TestChunkBounds(t *testing.T) {
	tbl := &Table{NRows: ChunkSize*2 + 7}
	if got := tbl.NumChunks(); got != 3 {
		t.Fatalf("NumChunks=%d want 3", got)
	}
	lo, hi := tbl.ChunkBounds(2)
	if lo != 2*ChunkSize || hi != tbl.NRows {
		t.Fatalf("ChunkBounds(2)=[%d,%d)", lo, hi)
	}
	empty := &Table{}
	if empty.NumChunks() != 0 {
		t.Fatal("empty table has chunks")
	}
}

// TestPageRoundTrip: AppendPage/DecodePage must reproduce rows exactly for
// every column representation, including empty and zero-width relations.
func TestPageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mkRows := func(ncols, n int, gen func(ci, ri int) types.Value) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = make(types.Row, ncols)
			for j := range rows[i] {
				rows[i][j] = gen(j, i)
			}
		}
		return rows
	}
	cases := []struct {
		name  string
		ncols int
		rows  []types.Row
	}{
		{"empty", 3, nil},
		{"zero-width", 0, mkRows(0, 5, nil)},
		{"typed", 4, mkRows(4, 777, func(ci, ri int) types.Value {
			switch ci {
			case 0:
				return types.NewInt(rng.Int63() - rng.Int63())
			case 1:
				return types.NewFloat(rng.NormFloat64())
			case 2:
				return types.NewString(fmt.Sprintf("g%d", rng.Intn(9)))
			default:
				return types.NewBool(ri%2 == 0)
			}
		})},
		{"nullable", 3, mkRows(3, 500, func(ci, ri int) types.Value {
			if rng.Intn(3) == 0 {
				return types.Null
			}
			return types.NewInt(int64(ri))
		})},
		{"all-null", 2, mkRows(2, 64, func(ci, ri int) types.Value { return types.Null })},
		{"mixed", 2, mkRows(2, 400, func(ci, ri int) types.Value { return randValue(rng) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf, ok := AppendPage(nil, tc.ncols, tc.rows)
			if !ok {
				t.Fatal("AppendPage rejected rectangular rows")
			}
			got, err := DecodePage(buf)
			if err != nil {
				t.Fatalf("DecodePage: %v", err)
			}
			if len(got) != len(tc.rows) {
				t.Fatalf("decoded %d rows want %d", len(got), len(tc.rows))
			}
			for i := range tc.rows {
				if len(got[i]) != len(tc.rows[i]) {
					t.Fatalf("row %d width %d want %d", i, len(got[i]), len(tc.rows[i]))
				}
				for j, want := range tc.rows[i] {
					g := got[i][j]
					if g.K != want.K || g.I != want.I || g.S != want.S ||
						math.Float64bits(g.F) != math.Float64bits(want.F) {
						t.Fatalf("row %d col %d: %#v want %#v", i, j, g, want)
					}
				}
			}
		})
	}
	// Ragged rows must be rejected, not silently truncated.
	ragged := []types.Row{{types.NewInt(1)}, {}}
	if _, ok := AppendPage(nil, 1, ragged); ok {
		t.Fatal("AppendPage accepted ragged rows")
	}
}

// TestDecodePageCorrupt: truncated pages must error, not panic.
func TestDecodePageCorrupt(t *testing.T) {
	rows := []types.Row{{types.NewInt(7), types.NewString("x")}}
	buf, _ := AppendPage(nil, 2, rows)
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodePage(buf[:cut]); err == nil {
			t.Fatalf("DecodePage accepted truncation at %d", cut)
		}
	}
}

func TestBitmap(t *testing.T) {
	b := NewBitmap(130)
	for _, i := range []int{0, 63, 64, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(65) {
		t.Fatal("neighboring bits disturbed")
	}
}

// TestGetSel: the selection pool hands back empty buffers with adequate
// capacity and recycles without aliasing live data.
func TestGetSel(t *testing.T) {
	p := GetSel(100)
	if len(*p) != 0 || cap(*p) < 100 {
		t.Fatalf("GetSel: len=%d cap=%d", len(*p), cap(*p))
	}
	*p = append(*p, 1, 2, 3)
	PutSel(p)
	q := GetSel(10)
	if len(*q) != 0 {
		t.Fatal("recycled buffer not reset")
	}
	PutSel(q)
}

// TestDictRank: a dictionary's rank orders its codes as their strings sort,
// is shared by the columns sharing the dictionary, and is ranked anew when
// a derived image adds to the dictionary.
func TestDictRank(t *testing.T) {
	rows := []types.Row{{types.NewString("m")}, {types.NewString("b")}, {types.Null}, {types.NewString("x")}, {types.NewString("b")}}
	img := FromRows(1, rows)
	c := img.Cols[0]
	check := func(c *Column) {
		t.Helper()
		rank := c.DictRank()
		for a := range c.Dict {
			for b := range c.Dict {
				if (rank[a] < rank[b]) != (c.Dict[a] < c.Dict[b]) {
					t.Fatalf("rank %v does not order %q", rank, c.Dict)
				}
			}
		}
	}
	check(c)
	if g := Gather(c, []int32{3, 1}); &g.DictRank()[0] != &c.DictRank()[0] {
		t.Error("a gathered column ranks its shared dictionary again")
	}
	more := append(append([]types.Row{}, rows...), types.Row{types.NewString("a")}, types.Row{types.NewString("c")})
	ext, m := img.Extend(more)
	if m != Fits {
		t.Fatal(m)
	}
	check(ext.Cols[0])
	if len(ext.Cols[0].DictRank()) != 5 || len(c.DictRank()) != 3 {
		t.Errorf("ranks of %d and %d codes, want 5 and 3", len(ext.Cols[0].DictRank()), len(c.DictRank()))
	}
}
