package telemetry

// The span context (IDs, active spans, parked hops) is the recorder's
// own; these expose it to the package's external tests.

func (t *Tracer) NextID(node string) string           { return t.nextID(node) }
func (t *Tracer) SetActive(node, trace, span string)  { t.setActive(node, trace, span) }
func (t *Tracer) SetHop(from, trace, to, span string) { t.setHop(from, trace, to, span) }
func (t *Tracer) TakeHop(from, trace, to string) string {
	return t.takeHop(from, trace, to)
}
