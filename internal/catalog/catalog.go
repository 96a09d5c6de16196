// Package catalog manages named tables and their row storage. It is the
// engine's "dictionary": the paper contrasts spreadsheets' lack of shared
// metadata with RDBMS catalogs, and this package is that catalog.
package catalog

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sqlsheet/internal/mvcc"
	"sqlsheet/internal/types"
)

// Table is a named relation with a schema and in-memory row storage.
// Version increments on every mutation; materialized-view refresh uses it
// to distinguish pure appends (incremental-refresh eligible) from updates
// and deletes, and the serving-path cache snapshots it to invalidate
// derived artifacts. Version is atomic because cache probes read it
// lock-free while a concurrent writer (holding the DB statement lock, which
// readers of *other* tables do not contend on) bumps it. Rows is the
// writer's master copy: only code holding the exclusive statement lock (or
// owning the table outright) touches it; everything that scans reads the
// published image (Img), with its columnar transposition cached on it.
type Table struct {
	Name    string
	Schema  *types.Schema
	Rows    []types.Row
	Version atomic.Int64

	// img is the last published MVCC image: the row set readers under
	// snapshot isolation scan. Writers publish at statement boundaries
	// (Publish / Catalog.PublishAll) while holding the exclusive statement
	// lock; readers pin it lock-free through a Snapshot. See internal/mvcc
	// for the copy-on-write discipline that makes this safe.
	img atomic.Pointer[mvcc.Image]
	// delta is what the UPDATE or DELETE since the last Publish handed over
	// (Replace); the next image takes it as its lineage. counters is the
	// owning catalog's, nil for a table outside one.
	delta    *mvcc.Delta
	counters *mvcc.Counters
}

// Publish installs the table's current rows as its readable MVCC image.
// The caller must hold the lock that makes t.Rows safe to read (the
// exclusive statement lock, or exclusive ownership of a fresh table).
// The image records how it follows the one it replaces (a few words; see
// mvcc.Image.Follow) and nothing else happens here: whoever first wants the
// columnar form pays for it, outside the statement lock.
func (t *Table) Publish() {
	im := mvcc.NewImage(t.Version.Load(), t.Schema.Len(), t.Rows)
	im.Follow(t.img.Load(), t.delta, t.counters)
	t.delta = nil
	t.img.Store(im)
}

// Replace installs d.Rows as the table's rows after an UPDATE or DELETE,
// copy-on-write: d.Rows is a new slice, never the published one written in
// place. d says which positions of the image the statement read it touched;
// the next Publish hands that to the new image (and ignores it if anything
// else changed the table in between).
func (t *Table) Replace(d *mvcc.Delta) {
	t.Rows = d.Rows
	t.Version.Add(1)
	t.delta = d
}

// Img returns the table's last published image: what every scan reads.
// Catalog-registered tables always have one (Create and CreateMatView
// publish before the table becomes visible), so rows assigned or inserted
// afterwards are invisible to readers until the next Publish. A Table
// constructed directly and never published falls back to a one-off image of
// its rows, which its single owner reads safely by construction.
func (t *Table) Img() *mvcc.Image {
	if im := t.img.Load(); im != nil {
		return im
	}
	return mvcc.NewImage(t.Version.Load(), t.Schema.Len(), t.Rows)
}

// PublishAll publishes every table whose rows changed since its last image
// (version bumped, or the slice swapped wholesale). The database calls it
// at the end of every mutating statement, under the exclusive statement
// lock, so readers pin only statement-boundary states.
func (c *Catalog) PublishAll() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, t := range c.tables {
		if !t.img.Load().Covers(t.Version.Load(), t.Rows) {
			t.Publish()
		}
	}
}

// Catalog is a registry of tables. It is safe for concurrent readers with a
// single writer per table.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*View
	mviews map[string]*MatView
	// images counts how the columnar forms of this catalog's table images
	// came to be (built in full or derived).
	images mvcc.Counters
}

// ImageCounters snapshots how the columnar forms of this catalog's table
// images came to be.
func (c *Catalog) ImageCounters() mvcc.CounterValues { return c.images.Snapshot() }

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create registers a new empty table. It fails if the name exists.
func (c *Catalog) Create(name string, schema *types.Schema) (*Table, error) {
	name = strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureViews()
	if c.nameInUse(name) {
		return nil, fmt.Errorf("table %q already exists", name)
	}
	t := &Table{Name: name, Schema: schema, counters: &c.images}
	// Publish the empty image before the table becomes visible, so a
	// snapshot reader racing the creating statement pins a well-defined
	// (empty) state instead of nil.
	t.Publish()
	c.tables[name] = t
	return t, nil
}

// Drop removes a table; missing tables are ignored.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, strings.ToLower(name))
}

// Get looks a table up by name.
func (c *Catalog) Get(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Names returns all table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ns := make([]string, 0, len(c.tables))
	for n := range c.tables {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Insert appends rows to a table, coercing each value to the declared
// column kind where a kind is declared. It is all or nothing: a row that
// cannot be stored leaves the table as it was. Version advances once per
// appended row (incremental view refresh and image lineage count on it).
func (t *Table) Insert(rows ...types.Row) error {
	cps := make([]types.Row, len(rows))
	for ri, r := range rows {
		if len(r) != t.Schema.Len() {
			return fmt.Errorf("table %q: row has %d values, schema has %d columns", t.Name, len(r), t.Schema.Len())
		}
		cp := make(types.Row, len(r))
		for i, v := range r {
			cv, err := Coerce(v, t.Schema.Cols[i].Kind)
			if err != nil {
				return fmt.Errorf("table %q column %q: %v", t.Name, t.Schema.Cols[i].Name, err)
			}
			cp[i] = cv
		}
		cps[ri] = cp
	}
	t.Rows = append(t.Rows, cps...)
	t.Version.Add(int64(len(cps)))
	return nil
}

// Coerce converts v to the declared kind. KindNull declarations accept any
// value unchanged; NULL passes through every declaration.
func Coerce(v types.Value, k types.Kind) (types.Value, error) {
	if v.IsNull() || k == types.KindNull || v.K == k {
		return v, nil
	}
	switch k {
	case types.KindInt:
		if v.K == types.KindFloat {
			return types.NewInt(int64(v.F)), nil
		}
	case types.KindFloat:
		if v.K == types.KindInt {
			return types.NewFloat(float64(v.I)), nil
		}
	case types.KindString:
		return types.NewString(v.String()), nil
	}
	return types.Null, fmt.Errorf("cannot store %s value as %s", v.K, k)
}

// ReadCSV parses CSV data into rows of the given width, touching no table:
// the caller hands them to Insert, which stores all of them or none. Values
// parse as int, then float, then string; empty fields become NULL.
func ReadCSV(r io.Reader, width int, skipHeader bool) ([]types.Row, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = width
	var rows []types.Row
	for first := true; ; first = false {
		rec, err := cr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		if first && skipHeader {
			continue
		}
		row := make(types.Row, len(rec))
		for i, f := range rec {
			row[i] = ParseField(f)
		}
		rows = append(rows, row)
	}
}

// ParseField converts one CSV field into a Value.
func ParseField(f string) types.Value {
	if f == "" {
		return types.Null
	}
	if i, err := strconv.ParseInt(f, 10, 64); err == nil {
		return types.NewInt(i)
	}
	if fl, err := strconv.ParseFloat(f, 64); err == nil {
		return types.NewFloat(fl)
	}
	return types.NewString(f)
}

// WriteCSV writes the table's rows (with a header) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema.Names()); err != nil {
		return err
	}
	rec := make([]string, t.Schema.Len())
	for _, row := range t.Rows {
		for i, v := range row {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
