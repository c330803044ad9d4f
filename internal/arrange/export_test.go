package arrange

// ReadOnly reports whether a holds none of Insert's construction caches,
// and whether its name map is still unbuilt. It lets the external test
// package, which can build an invariant on a stitch, see both.
func ReadOnly(a *Arrangement) (noCaches, noNameMap bool) {
	return a.walkOf == nil && a.walkArea == nil && a.walkMin == nil && a.faceBox == nil, a.index.m == nil
}
