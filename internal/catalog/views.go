package catalog

import (
	"fmt"
	"sort"
	"strings"

	"sqlsheet/internal/sqlast"
)

// View is a stored query expanded at plan time. The paper expects
// applications to "generate views containing spreadsheets with thousands of
// formulas" and relies on formula pruning when users query them (§4).
type View struct {
	Name  string
	Query *sqlast.SelectStmt
}

// MatView is a materialized view: a stored query plus its materialized rows
// (registered as a table of the same name) and the bookkeeping incremental
// refresh needs (§7 "Materialized Views").
type MatView struct {
	Name  string
	Query *sqlast.SelectStmt
	// DefSQL is the canonical (FormatStatement) rendering of Query; the
	// optimizer's exact-match rewrite compares against it.
	DefSQL string
	// Table holds the materialized rows; it is also registered in the
	// table namespace so scans resolve it like any relation.
	Table *Table

	// Incremental-refresh metadata (zero values = full refresh only).
	// MainSource is the fact table under the view's spreadsheet; PbyCols
	// maps the spreadsheet's PBY columns to (source ordinal, output
	// ordinal) pairs.
	MainSource string
	PbyCols    []PbyBinding
	// Watermarks records each source table's row count at last refresh; a
	// grown count identifies the appended delta.
	Watermarks map[string]int
	// Versions records each source's mutation counter at last refresh. A
	// version change that is not explained by appends (inserts bump both
	// counters in step) forces a full refresh.
	Versions map[string]int64
}

// PbyBinding ties one PBY column to its position in the source table and in
// the materialized output.
type PbyBinding struct {
	Name      string
	SourceCol int
	OutputCol int
}

// ensureViews lazily initializes the view namespaces.
func (c *Catalog) ensureViews() {
	if c.views == nil {
		c.views = make(map[string]*View)
	}
	if c.mviews == nil {
		c.mviews = make(map[string]*MatView)
	}
}

// nameInUse reports whether any namespace holds the name. Callers hold c.mu.
func (c *Catalog) nameInUse(name string) bool {
	if _, ok := c.tables[name]; ok {
		return true
	}
	if _, ok := c.views[name]; ok {
		return true
	}
	_, ok := c.mviews[name]
	return ok
}

// InUse reports whether a table, view or materialized view has the name.
func (c *Catalog) InUse(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nameInUse(strings.ToLower(name))
}

// CreateView registers a plain view.
func (c *Catalog) CreateView(name string, query *sqlast.SelectStmt) (*View, error) {
	name = strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureViews()
	if c.nameInUse(name) {
		return nil, fmt.Errorf("object %q already exists", name)
	}
	v := &View{Name: name, Query: query}
	c.views[name] = v
	return v, nil
}

// ViewDef looks up a plain view.
func (c *Catalog) ViewDef(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[strings.ToLower(name)]
	return v, ok
}

// ViewQuery returns a plain view's definition, nil when name is not one: the
// lookup sqlast.WalkTables expands views with.
func (c *Catalog) ViewQuery(name string) *sqlast.SelectStmt {
	if v, ok := c.ViewDef(name); ok {
		return v.Query
	}
	return nil
}

// CreateMatView registers a materialized view and its backing table, which
// is either new or the plain table already registered under the name.
func (c *Catalog) CreateMatView(mv *MatView) error {
	name := strings.ToLower(mv.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureViews()
	if c.nameInUse(name) && (c.tables[name] != mv.Table || c.mviews[name] != nil) {
		return fmt.Errorf("object %q already exists", name)
	}
	mv.Name = name
	if c.tables[name] == nil {
		mv.Table.Name = name
		mv.Table.counters = &c.images
		// The backing table was constructed outside Create; publish its
		// image before it becomes visible to snapshot readers.
		mv.Table.Publish()
	}
	c.mviews[name] = mv
	c.tables[name] = mv.Table
	return nil
}

// MatViewDef looks up a materialized view.
func (c *Catalog) MatViewDef(name string) (*MatView, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	mv, ok := c.mviews[strings.ToLower(name)]
	return mv, ok
}

// DropObject removes a table, view or materialized view; it reports whether
// anything was removed.
func (c *Catalog) DropObject(name string) bool {
	name = strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureViews()
	found := c.nameInUse(name)
	delete(c.views, name)
	delete(c.mviews, name)
	delete(c.tables, name)
	return found
}

// ViewNames lists plain views, sorted.
func (c *Catalog) ViewNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for n := range c.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MatViewNames lists materialized views, sorted.
func (c *Catalog) MatViewNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for n := range c.mviews {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MatViewByDef finds a materialized view whose canonical definition equals
// defSQL (the optimizer's exact-match rewrite).
func (c *Catalog) MatViewByDef(defSQL string) (*MatView, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, mv := range c.mviews {
		if mv.DefSQL != "" && mv.DefSQL == defSQL {
			return mv, true
		}
	}
	return nil, false
}
