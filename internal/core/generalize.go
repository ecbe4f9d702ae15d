package core

import (
	"diva/internal/hierarchy"
	"diva/internal/par"
	"diva/internal/relation"
)

// SuppressGeneralize is the generalization-based variant of Suppress
// (Algorithm 2): within each cluster, a QI attribute on which the cluster
// disagrees is replaced by the least common ancestor of the cluster's
// values in the attribute's hierarchy, rather than by ★. Attributes
// without a hierarchy fall back to suppression (the flat-hierarchy special
// case), so SuppressGeneralize(rel, clusters, nil) ≡ Suppress(rel,
// clusters). Suppression renders on up to GOMAXPROCS workers above the
// split grain (par.Grain); the output does not depend on their number.
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
	out.Extend(size)
	suppressInto(out, 0, rel, clusters, hs, 0)
	return out
}

// suppressInto writes the rendering of clusters (SuppressGeneralize's
// output rows, in cluster order) into out's tuples from dst on, which must
// exist, and returns the number of QI ★ cells it wrote; out must share
// rel's dictionaries. The drivers extend out to all of R′ once and render
// RΣ and then Rk into it, so R′ is assembled in place and its ★s are
// counted where they are written: per cluster, the QI columns rendered as
// ★ (suppressed, or generalized to no finer ancestor than ★) plus the
// uniform QI columns already holding ★, times the cluster's size.
//
// Above 2·par.Grain rows the clusters split into contiguous ranges of
// about equal row counts, rendered on up to parallelism workers (0 means
// GOMAXPROCS). A range's tuples start after the rows of the clusters
// before it, and each worker counts its own ★s. Generalization renders on
// the caller: it interns LCA values into the shared dictionaries.
func suppressInto(out *relation.Relation, dst int, rel *relation.Relation, clusters [][]int, hs hierarchy.Set, parallelism int) int {
	rows := 0
	for _, c := range clusters {
		rows += len(c)
	}
	w := 1
	if len(hs) == 0 {
		w = par.Workers(parallelism, rows)
	}
	if w == 1 {
		return render(out, rel, clusters, dst, hs)
	}
	// Worker i renders clusters[first[i]:first[i+1]] into out's tuples
	// from at[i] on: the cuts fall at the first cluster boundaries at or
	// past i·rows/w rows.
	first, at := make([]int, w+1), make([]int, w)
	first[w] = len(clusters)
	i, done := 1, 0
	for ci, c := range clusters {
		for ; i < w && done >= i*rows/w; i++ {
			first[i], at[i] = ci, dst+done
		}
		done += len(c)
	}
	for ; i < w; i++ {
		first[i], at[i] = len(clusters), dst+rows
	}
	at[0] = dst
	stars := make([]int, w)
	par.Do(w, func(i int) {
		stars[i] = render(out, rel, clusters[first[i]:first[i+1]], at[i], hs)
	})
	total := 0
	for _, s := range stars {
		total += s
	}
	return total
}

// render is suppressInto on the caller. Each cluster's rows are copied
// first, and the cluster is then judged on its contiguous copies.
func render(out, rel *relation.Relation, clusters [][]int, dst int, hs hierarchy.Set) int {
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
		for j, t := range c {
			copy(out.Row(dst+j), rel.Row(t))
		}
		lo, hi := dst, dst+len(c)
		dst = hi
		overrides = overrides[:0]
		first := out.Row(lo)
		starCols := 0
		for _, a := range qi {
			uniform := true
			for t := lo + 1; t < hi; t++ {
				if out.Code(t, a) != first[a] {
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
				lca := out.Value(lo, a)
				for t := lo + 1; t < hi; t++ {
					lca = h.LCA(lca, out.Value(t, a))
					if lca == relation.Star {
						break
					}
				}
				if lca != relation.Star {
					code = out.Dict(a).Ancestor(lca)
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
		for t := lo; t < hi; t++ {
			row := out.Row(t)
			for _, o := range overrides {
				row[o.attr] = o.code
			}
		}
	}
	return stars
}
