package core

import (
	"diva/internal/hierarchy"
	"diva/internal/relation"
)

// SuppressGeneralize is the generalization-based variant of Suppress
// (Algorithm 2): within each cluster, a QI attribute on which the cluster
// disagrees is replaced by the least common ancestor of the cluster's
// values in the attribute's hierarchy, rather than by ★. Attributes
// without a hierarchy fall back to suppression (the flat-hierarchy special
// case), so SuppressGeneralize(rel, clusters, nil) ≡ Suppress(rel,
// clusters).
//
// The output is k-anonymous exactly as with Suppress — every cluster's
// tuples share identical QI vectors — but retains partial information
// ("[30-39]" instead of ★), which the hierarchy.NCP measure prices.
// Diversity constraints count exact target values (Definition 2.3), so a
// generalized cell never contributes an occurrence, mirroring a suppressed
// one; DIVA's satisfaction guarantees carry over unchanged. Note that
// R ⊑ R′ in the strict value-or-★ sense holds only for the suppression
// variant; generalized outputs satisfy the weaker ancestor-or-value
// relation inherent to generalization.
func SuppressGeneralize(rel *relation.Relation, clusters [][]int, hs hierarchy.Set) *relation.Relation {
	out := rel.Derive()
	size := 0
	for _, c := range clusters {
		size += len(c)
	}
	out.Grow(size)
	suppressInto(out, rel, clusters, hs)
	return out
}

// suppressInto appends the rendering of clusters (SuppressGeneralize's
// output rows, in cluster order) to out, which must share rel's
// dictionaries, and returns the number of QI ★ cells it wrote. The drivers
// render RΣ and then Rk into one presized out, so R′ is assembled in place
// and its ★s are counted where they are written: per cluster, the QI
// columns rendered as ★ (suppressed, or generalized to no finer ancestor
// than ★) plus the uniform QI columns already holding ★, times the
// cluster's size.
func suppressInto(out, rel *relation.Relation, clusters [][]int, hs hierarchy.Set) int {
	schema := rel.Schema()
	qi := schema.QIIndexes()
	var ids []int
	for i := 0; i < schema.Len(); i++ {
		if schema.Attr(i).Role == relation.Identifier {
			ids = append(ids, i)
		}
	}
	// Per cluster: the (attribute, code) overrides every tuple receives —
	// the replacement of each QI attribute the cluster disagrees on, and ★
	// for every identifier.
	type override struct {
		attr int
		code uint32
	}
	overrides := make([]override, 0, len(qi)+len(ids))
	stars := 0
	for _, c := range clusters {
		if len(c) == 0 {
			continue
		}
		overrides = overrides[:0]
		first := rel.Row(c[0])
		starCols := 0
		for _, a := range qi {
			uniform := true
			for _, t := range c[1:] {
				if rel.Code(t, a) != first[a] {
					uniform = false
					break
				}
			}
			if uniform {
				if first[a] == relation.StarCode {
					starCols++
				}
				continue
			}
			code := relation.StarCode
			if h, ok := hs.For(schema.Attr(a).Name); ok {
				// LCA over the cluster's values.
				lca := rel.Value(c[0], a)
				for _, t := range c[1:] {
					lca = h.LCA(lca, rel.Value(t, a))
					if lca == relation.Star {
						break
					}
				}
				if lca != relation.Star {
					code = out.Dict(a).Code(lca)
				}
			}
			if code == relation.StarCode {
				starCols++
			}
			overrides = append(overrides, override{a, code})
		}
		stars += starCols * len(c)
		for _, a := range ids {
			overrides = append(overrides, override{a, relation.StarCode})
		}
		for _, t := range c {
			row := out.Row(out.AppendCodes(rel.Row(t)))
			for _, o := range overrides {
				row[o.attr] = o.code
			}
		}
	}
	return stars
}
