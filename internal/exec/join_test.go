package exec

import (
	"testing"
	"unsafe"

	"sqlsheet/internal/types"
)

// TestJoinRowsFromChunks: the hash join's combined rows are carved from
// shared chunks, each with cap == len so an append to one never writes its
// neighbour, and a row the residual rejects leaves no gap: consecutive kept
// rows sit side by side except where a new chunk starts. A LEFT JOIN's
// null-extended rows read NULL on the build side even where a rejected
// row's values were written first.
func TestJoinRowsFromChunks(t *testing.T) {
	_, run := newEnv(t)
	mustRun(t, run, `CREATE TABLE a (k INT, x INT)`)
	mustRun(t, run, `CREATE TABLE b (k INT, y INT)`)
	for i := 0; i < 100; i++ {
		mustRun(t, run, "INSERT INTO a VALUES ("+itoa(i)+", "+itoa(i%3)+")")
		if i%10 != 0 {
			mustRun(t, run, "INSERT INTO b VALUES ("+itoa(i)+", 0), ("+itoa(i)+", 5)")
		} else {
			mustRun(t, run, "INSERT INTO b VALUES ("+itoa(i)+", 0)")
		}
	}
	res := mustRun(t, run, `SELECT a.k, a.x, b.k, b.y FROM a LEFT JOIN b ON a.k = b.k AND a.x < b.y`)
	if len(res.Rows) != 100 {
		t.Fatalf("%d rows, want one per row of a", len(res.Rows))
	}
	size := unsafe.Sizeof(types.Value{})
	breaks := 0
	for i, r := range res.Rows {
		if cap(r) != len(r) || len(r) != 4 {
			t.Fatalf("row %d: len %d cap %d, want 4 and 4", i, len(r), cap(r))
		}
		k := r[0].I
		switch {
		case k%10 == 0 && r[2].K != types.KindNull:
			t.Errorf("row %d: %v, want b's side NULL (the residual rejects its only match)", i, r)
		case k%10 != 0 && (r[2].I != k || r[3].I != 5):
			t.Errorf("row %d: %v, want b.k = %d, b.y = 5", i, r, k)
		}
		if i > 0 && uintptr(unsafe.Pointer(&r[0]))-uintptr(unsafe.Pointer(&res.Rows[i-1][0])) != 4*size {
			breaks++
		}
	}
	// Chunks of 8, 16, 32 and 64 rows hold 100 rows: three chunk starts.
	if breaks > 3 {
		t.Errorf("%d breaks between consecutive rows, want at most 3 (one per new chunk)", breaks)
	}
}

func itoa(i int) string { return types.NewInt(int64(i)).String() }
