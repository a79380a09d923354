package des

// Test-only view of the engine's heap-push counter.

// HeapPushes returns how many events e has pushed onto its heap.
func HeapPushes(e *Engine) uint64 { return e.heapPushes }
