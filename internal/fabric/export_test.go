package fabric

// Hooks for the external fabric_test package, which drives the fabric through
// whole simulated MPI worlds.

// EnableShadow arms the shadow checker on n (see enableShadow).
func EnableShadow(n *Net, onMismatch func(format string, args ...any)) {
	n.enableShadow(onMismatch)
}

// MaxBundle returns the member count of the largest bundle in service on n.
func MaxBundle(n *Net) int {
	m := 0
	for _, c := range n.comps {
		for _, b := range c.bundles {
			m = max(m, b.m)
		}
	}
	return m
}
