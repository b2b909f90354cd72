package obs

import (
	"reflect"
	"strings"

	"repro/internal/cost"
	"repro/internal/hv"
)

// The four per-epoch counter sets a trace event can carry. Each is
// declared once, beside its producer — fields, trace keys, series, Add —
// and only named here.
type (
	Hypercalls  = hv.Hypercalls
	ScanCache   = cost.ScanCacheCounts
	CoW         = cost.CoWCounts
	Replication = cost.ReplicationCounts
)

// SetCounters are the registry counters behind one counter set's
// series for one VM: one per field of T that carries a
// `series:"metric,label=value"` tag. The zero value is inert, so a set
// whose mode is off is simply never bound and its series stay out of
// the dump.
type SetCounters[T any] struct {
	fields   []int
	counters []*Counter
}

// BindCounters registers the series of counter set T, labelled vm.
func BindCounters[T any](r *Registry, vm string) (cs SetCounters[T]) {
	t := reflect.TypeOf(*new(T))
	for i := 0; i < t.NumField(); i++ {
		metric, pair, ok := strings.Cut(t.Field(i).Tag.Get("series"), ",")
		if !ok {
			continue
		}
		label, value, _ := strings.Cut(pair, "=")
		cs.fields = append(cs.fields, i)
		cs.counters = append(cs.counters, r.Counter(metric, "vm", vm, label, value))
	}
	return cs
}

// Add folds one delta of the set into its series.
func (cs SetCounters[T]) Add(delta T) {
	if len(cs.fields) == 0 {
		return
	}
	v := reflect.ValueOf(delta)
	for i, f := range cs.fields {
		cs.counters[i].Add(v.Field(f).Int())
	}
}
