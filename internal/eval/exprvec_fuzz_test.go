package eval

import (
	"math"
	"math/rand"
	"testing"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/types"
)

// fuzzKernelRows builds a small table over (a INT, b FLOAT, c TEXT, d INT)
// whose shape is steered by mask bits: NULL density, an all-NULL column,
// NaN/Inf floats and int64 extremes. The resulting column representations
// cover every storage class the kernel's gather path distinguishes (a column
// holds one kind: values that mix kinds have no image).
func fuzzKernelRows(rng *rand.Rand, mask uint8) []types.Row {
	n := 1 + rng.Intn(40)
	if mask&0x20 != 0 {
		n = 0 // empty relation: zero-length vectors, no chunks
	}
	rows := make([]types.Row, n)
	for i := range rows {
		a := types.NewInt(int64(rng.Intn(20) - 10))
		if mask&0x08 != 0 && i%3 == 0 {
			a = types.NewInt(math.MaxInt64 - int64(rng.Intn(2)))
		}
		if mask&0x01 != 0 && rng.Intn(4) == 0 {
			a = types.Null
		}
		b := types.NewFloat(float64(rng.Intn(41)-20) / 4)
		if mask&0x04 != 0 {
			switch rng.Intn(5) {
			case 0:
				b = types.NewFloat(math.NaN())
			case 1:
				b = types.NewFloat(math.Inf(1))
			case 2:
				b = types.NewFloat(math.Inf(-1))
			}
		}
		if mask&0x02 != 0 {
			b = types.Null // all-NULL column: bitmap-only representation
		}
		strs := []string{"dvd", "west", "", "d_d", "100% sure"}
		c := types.NewString(strs[rng.Intn(len(strs))])
		if rng.Intn(6) == 0 {
			c = types.Null
		}
		d := types.NewInt(int64(rng.Intn(5) - 2))
		rows[i] = types.Row{a, b, c, d}
	}
	return rows
}

// FuzzExprKernel is the compute-kernel equivalence property as a fuzz
// target: whenever CompileExprKernel accepts a parsed expression and the
// columnar image supports it, running the kernel over the image must match
// the compiled row closure row for row — identical value bits (kind, int,
// float bit pattern, string) and, on failure, the identical error text the
// row scan would have raised. Parse failures and kernel fallbacks are not
// findings; silent divergence is.
func FuzzExprKernel(f *testing.F) {
	seeds := []struct {
		src  string
		seed int64
		mask uint8
	}{
		{"a + b * 2.5", 1, 0x00},
		{"a / (a - a)", 2, 0x01}, // division by zero on every row
		{"c || '-' || c", 3, 0x00},
		{"b - a / 2.0", 4, 0x04}, // NaN/Inf operands
		{"a + a", 5, 0x08},       // int64 wraparound at MaxInt64
		{"b * b", 6, 0x02},       // all-NULL column
		{"a * d + 1", 7, 0x00},
		{"-b + a", 8, 0x05},
		{"a - 7", 9, 0x20}, // empty relation
		// Simple CASE: a NULL operand row (mask 0x01), no ELSE, a plain
		// (non-dictionary) string column (mask 0x40), INT/FLOAT arms (one
		// kind kernelizes, two stay on the closure), FLOAT WHEN values
		// matching INT operands, a NULL WHEN.
		{"CASE a WHEN 1 THEN 'one' WHEN -2 THEN 'minus' ELSE 'other' END", 10, 0x01},
		{"CASE c WHEN 'dvd' THEN 1 WHEN 'west' THEN 2 END", 11, 0x00},
		{"CASE c WHEN 'dvd' THEN 1.5 WHEN '' THEN 2.5 WHEN NULL THEN 9.5 ELSE 0.5 END", 12, 0x40},
		{"CASE a WHEN 2.0 THEN 1 WHEN 3 THEN 2.5 ELSE 0 END", 13, 0x01},
		{"CASE d WHEN 1.0 THEN 10 WHEN -1 THEN 20 ELSE NULL END", 14, 0x00},
		{"CASE b WHEN 0.5 THEN 'half' WHEN 1 THEN 'one' END", 15, 0x06},
	}
	for _, s := range seeds {
		f.Add(s.src, s.seed, s.mask)
	}
	f.Fuzz(func(t *testing.T, src string, seed int64, mask uint8) {
		if len(src) > 200 {
			return
		}
		e, err := parser.ParseExpr(src)
		if err != nil {
			return
		}
		bs := NewBoundSchema([]BoundCol{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}})
		k := CompileExprKernel(bs, e)
		if !k.Valid() {
			return // expression shape has no kernel: fallback, not a finding
		}
		rows := fuzzKernelRows(rand.New(rand.NewSource(seed)), mask)
		tbl := colstore.FromRows(4, rows)
		if tbl == nil {
			t.Fatal("FromRows rejected rectangular rows")
		}
		if mask&0x40 != 0 && len(rows) > 0 {
			// c as plain strings rather than a dictionary.
			vals := make([]types.Value, len(rows))
			for i, r := range rows {
				vals[i] = r[2]
			}
			tbl.Cols[2] = colstore.FromValues(vals, false)
		}
		if _, ok := k.OutKind(tbl, nil); !ok || k.MinCols() > len(tbl.Cols) {
			return // image representation unsupported: production would fall back
		}
		ce := Compile(bs, e)
		// Full selection plus a pseudo-random subset: the subset exercises
		// selective gather while keeping the closure comparison aligned.
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		sels := [][]int32{nil, nil}
		for i := range rows {
			sels[0] = append(sels[0], int32(i))
			if rng.Intn(3) != 0 {
				sels[1] = append(sels[1], int32(i))
			}
		}
		for _, sel := range sels {
			vec, kerr := k.Run(tbl, nil, nil, sel)
			// Row closure over the same selection, stopping at the first
			// error exactly like the row scan does.
			var ferr error
			want := make([]types.Value, 0, len(sel))
			for _, ri := range sel {
				ctx := &Context{Binding: &Binding{BS: bs, Row: rows[ri]}, Nav: types.KeepNav}
				v, verr := ce.Eval(ctx)
				if verr != nil {
					ferr = verr
					break
				}
				want = append(want, v)
			}
			if (kerr != nil) != (ferr != nil) {
				t.Fatalf("%q: kernel err=%v closure err=%v", src, kerr, ferr)
			}
			if kerr != nil {
				if kerr.Error() != ferr.Error() {
					t.Fatalf("%q: kernel error %q, closure error %q", src, kerr, ferr)
				}
				continue
			}
			if vec.Len() != len(sel) {
				t.Fatalf("%q: kernel returned %d values for %d selected rows", src, vec.Len(), len(sel))
			}
			for i, w := range want {
				g := vec.BoxValue(i)
				if g.K != w.K || g.I != w.I || g.S != w.S ||
					math.Float64bits(g.F) != math.Float64bits(w.F) {
					t.Fatalf("%q sel row %d: kernel=%#v closure=%#v", src, i, g, w)
				}
			}
		}
	})
}

// TestCaseKernelShapes pins which simple CASE forms get a kernel: a column
// operand with constant WHEN values and constant arms of one kind (NULL
// arms aside). A searched CASE, a computed operand or arm and arms of two
// kinds stay on the closure.
func TestCaseKernelShapes(t *testing.T) {
	bs := NewBoundSchema([]BoundCol{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}})
	for src, want := range map[string]bool{
		"CASE c WHEN 'dvd' THEN 1 WHEN 'west' THEN 2 END":            true,
		"CASE a WHEN 1 THEN 'one' ELSE 'other' END":                  true,
		"CASE d WHEN 1.0 THEN 10 WHEN -1 THEN 20 ELSE NULL END":      true,
		"CASE c WHEN 'dvd' THEN NULL END":                            true,
		"CASE a WHEN 2.0 THEN 1 WHEN 3 THEN 2.5 ELSE 0 END":          false, // INT and FLOAT arms
		"CASE WHEN a > 1 THEN 1 ELSE 2 END":                          false, // searched
		"CASE a + 1 WHEN 2 THEN 1 END":                               false, // computed operand
		"CASE a WHEN 1 THEN b END":                                   false, // computed arm
		"CASE a WHEN d THEN 1 END":                                   false, // computed WHEN
		"CASE c WHEN 'dvd' THEN 'x' WHEN 'west' THEN 1 ELSE 'y' END": false,
	} {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := CompileExprKernel(bs, e).Valid(); got != want {
			t.Errorf("%s: kernel %v, want %v", src, got, want)
		}
	}
}
