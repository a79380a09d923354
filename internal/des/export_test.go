package des

// Test-only views of the engine's host-side counters.

// Handoffs returns how many times e's driver has switched into a process.
func Handoffs(e *Engine) uint64 { return e.handoffs }

// HeapPushes returns how many events e has pushed onto its heap.
func HeapPushes(e *Engine) uint64 { return e.heapPushes }
