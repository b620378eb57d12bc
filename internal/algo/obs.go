package algo

import (
	"repro/internal/dag"
	"repro/internal/obs"
)

// TracePriority stages node n's selection priority on the active
// tracer, with the slot policy under which the kernel compared
// candidate processors, for the placement record the imminent Place
// will emit. The disabled path is one atomic load and a nil check, and
// it runs once per placement, not per candidate pair. What each kernel
// stages is documented per algorithm in docs/observability.md.
func TracePriority(n dag.NodeID, prio int64, insertion bool) {
	if t := obs.ActiveTracer(); t != nil && t.InRun() {
		t.Priority(int32(n), prio, insertion)
	}
}
