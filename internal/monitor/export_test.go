package monitor

// DecompileGuard exposes the compile-time guard renderer to external
// tests, so they can check the cached strings against a fresh decompile.
func (p *Program) DecompileGuard(state, idx int) string { return p.decompileGuard(state, idx) }
