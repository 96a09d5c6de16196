package eval

import (
	"strings"

	"sqlsheet/internal/sqlast"
)

// likeMatcher is a LIKE pattern analyzed once so per-row matching avoids
// re-scanning the pattern string. Three shapes cover the common cases:
//
//   - likeExact: no wildcards at all — plain string equality.
//   - likeChunks: '%' wildcards but no '_' — anchored prefix/suffix checks
//     plus sequential substring search for the middle chunks, the greedy
//     strategy that is exact for '%'-only patterns.
//   - likeGeneric: patterns with '_' fall back to the two-pointer matcher.
type likeMatcher struct {
	kind    uint8
	pat     string   // original pattern (likeGeneric)
	exact   string   // likeExact
	prefix  string   // likeChunks: literal before the first '%'
	suffix  string   // likeChunks: literal after the last '%'
	middles []string // likeChunks: non-empty literals between '%'s
	minLen  int      // likeChunks: sum of all literal chunk lengths
}

const (
	likeExact uint8 = iota
	likeChunks
	likeGeneric
)

// compileLike analyzes pat into a matcher. The dialect has no ESCAPE clause,
// so '%' and '_' are always wildcards and splitting on '%' is safe.
func compileLike(pat string) *likeMatcher {
	if strings.IndexByte(pat, '_') >= 0 {
		return &likeMatcher{kind: likeGeneric, pat: pat}
	}
	if strings.IndexByte(pat, '%') < 0 {
		return &likeMatcher{kind: likeExact, exact: pat}
	}
	segs := strings.Split(pat, "%")
	m := &likeMatcher{kind: likeChunks, prefix: segs[0], suffix: segs[len(segs)-1]}
	for _, s := range segs[1 : len(segs)-1] {
		if s != "" {
			m.middles = append(m.middles, s)
		}
	}
	m.minLen = len(m.prefix) + len(m.suffix)
	for _, s := range m.middles {
		m.minLen += len(s)
	}
	return m
}

func (m *likeMatcher) match(s string) bool {
	switch m.kind {
	case likeExact:
		return s == m.exact
	case likeChunks:
		if len(s) < m.minLen {
			return false
		}
		if !strings.HasPrefix(s, m.prefix) || !strings.HasSuffix(s, m.suffix) {
			return false
		}
		body := s[len(m.prefix) : len(s)-len(m.suffix)]
		for _, c := range m.middles {
			i := strings.Index(body, c)
			if i < 0 {
				return false
			}
			body = body[i+len(c):]
		}
		return true
	default:
		return likeMatch(s, m.pat)
	}
}

// matcherFor returns the matcher for node x and the pattern string its
// non-constant pattern expression produced this row (constant patterns are
// matched by a matcher built at compile time). It rebuilds only when the
// pattern changes, through a lock-free per-node slot that morsel workers can
// share (a concurrent rebuild wastes work but is never wrong).
func matcherFor(x *sqlast.Like, pat string) *likeMatcher {
	return x.DynCache(pat, func() any { return compileLike(pat) }).(*likeMatcher)
}
