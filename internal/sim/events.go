// Event emission: the world narrates driver lifecycle and trip activity
// to an optional sink, which uberd connects to the event bus.
//
// Every emission point sits in a serial phase of Step (spawn/resume,
// the movement commit loop, dispatch), never inside a parallel shard —
// so the event stream is bit-for-bit identical for every worker count,
// the same invariant the world itself keeps. A nil sink costs one
// pointer check per would-be event.

package sim

import "repro/internal/bus"

// SetEventSink installs fn to receive world events. The callback runs
// synchronously inside Step on the caller's goroutine, so what it costs
// the simulation pays (a bus publish is one frame write). Pass nil to
// detach.
func (w *World) SetEventSink(fn func(bus.Event)) { w.events = fn }

func (w *World) emit(kind bus.Kind, key string, area int, num float64, str string) {
	if w.events == nil {
		return
	}
	w.events(bus.Event{
		Time: w.now,
		Kind: kind,
		Key:  key,
		Area: int32(area),
		Num:  num,
		Str:  str,
	})
}

// emitSlot tags a lifecycle event with the slot's session (the key
// preserves per-driver ordering through the bus) and current area.
func (w *World) emitSlot(kind bus.Kind, s int32, num float64, str string) {
	if w.events == nil {
		return
	}
	f := &w.fleet
	w.emit(kind, f.session[s], w.areaIndex.Find(f.pos[s]), num, str)
}
