package experiments

import (
	"time"

	"repro/internal/pagefile"
)

// Latency is the build-then-measure hook for simulated storage latency:
// experiments build an index at zero latency, then arm the value they
// measure under. Wrap goes into uncertain.Config.WrapStore (outermost when
// the config wraps other stores too, so every retry attempt of a faulted
// operation pays the latency again) and interposes one
// pagefile.LatencyStore per base store — a sharded index has one per
// shard; Arm sets the per-page read and write delay on all of them, safe
// beside running queries.
type Latency struct {
	stores []*pagefile.LatencyStore
}

// Wrap interposes a disarmed LatencyStore over s and remembers it.
func (l *Latency) Wrap(s pagefile.Store) pagefile.Store {
	ls := pagefile.NewLatencyStore(s, 0, 0)
	l.stores = append(l.stores, ls)
	return ls
}

// Arm sets the delay of every physical page read and write; 0 disarms.
func (l *Latency) Arm(d time.Duration) {
	for _, ls := range l.stores {
		ls.SetDelays(d, d)
	}
}
