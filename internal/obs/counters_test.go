package obs

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// fill returns a set whose i-th field holds scale*(i+1): distinct
// values, so a field read in place of another shows.
func fill[T any](scale int64) T {
	var set T
	v := reflect.ValueOf(&set).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(scale * int64(i+1))
	}
	return set
}

// notExported lists, per set, the fields that deliberately have neither
// a trace key nor a metric series: pricing-only inputs.
var notExported = map[string][]string{
	"ReplicationCounts": {"Batches", "Pages", "EncodedPages"},
}

// checkSet holds one counter set to the rules of cost/counters.go: Add
// covers every field, and every field is either exported twice — a
// trace key and a metric series — or listed in notExported and exported
// nowhere. A field added to a set without its Add line or one of its
// two tags fails here.
func checkSet[T comparable, P interface {
	*T
	Add(T)
}](t *testing.T) {
	t.Helper()
	typ := reflect.TypeOf(*new(T))
	sum := fill[T](1)
	P(&sum).Add(fill[T](100))
	if want := fill[T](101); sum != want {
		t.Errorf("%s: Add gave %+v, want %+v", typ.Name(), sum, want)
	}
	skip := make(map[string]bool)
	for _, name := range notExported[typ.Name()] {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("%s: notExported names a field %s that does not exist", typ.Name(), name)
		}
		skip[name] = true
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		series := f.Tag.Get("series")
		switch {
		case skip[f.Name]:
			if key != "-" || series != "" {
				t.Errorf("%s.%s is listed as not exported but has trace key %q / series %q", typ.Name(), f.Name, key, series)
			}
		case key == "" || key == "-":
			t.Errorf("%s.%s has no trace key (json tag %q)", typ.Name(), f.Name, f.Tag.Get("json"))
		case !regexp.MustCompile(`^crimes_\w+,\w+=\w+$`).MatchString(series):
			t.Errorf("%s.%s has no metric series (series tag %q): tag it or list it in notExported", typ.Name(), f.Name, series)
		}
	}
	// Every tagged field reaches its own series, and only its own.
	reg := NewRegistry()
	bound := BindCounters[T](reg, "vm0")
	bound.Add(fill[T](1))
	bound.Add(fill[T](1))
	for i := 0; i < typ.NumField(); i++ {
		metric, pair, ok := strings.Cut(typ.Field(i).Tag.Get("series"), ",")
		if !ok {
			continue
		}
		label, value, _ := strings.Cut(pair, "=")
		if got, want := reg.Counter(metric, "vm", "vm0", label, value).Value(), int64(2*(i+1)); got != want {
			t.Errorf("%s.%s: series %s{%s} = %d after two deltas, want %d", typ.Name(), typ.Field(i).Name, metric, pair, got, want)
		}
	}
}

func TestCounterSets(t *testing.T) {
	checkSet[Hypercalls](t)
	checkSet[ScanCache](t)
	checkSet[CoW](t)
	checkSet[Replication](t)

	// Where a delta is taken, Sub undoes Add.
	h := fill[Hypercalls](3)
	sum := h
	sum.Add(fill[Hypercalls](7))
	if got := sum.Sub(fill[Hypercalls](7)); got != h {
		t.Errorf("Hypercalls: Add then Sub gave %+v, want %+v", got, h)
	}
	// A domain that vanishes mid-epoch takes its attributed calls with
	// it: the "after" snapshot is smaller than "before" on every counter
	// it had touched, and the epoch's delta clamps to zero, not below.
	before := fill[Hypercalls](10)
	after := Hypercalls{MapPage: before.MapPage + 5, UnmapPage: 1}
	if got, want := after.Sub(before), (Hypercalls{MapPage: 5}); got != want {
		t.Errorf("clamped delta = %+v, want %+v", got, want)
	}
}

// An unbound set — its mode is off — is inert and registers nothing.
func TestUnboundSetCounters(t *testing.T) {
	reg := NewRegistry()
	BindCounters[Hypercalls](reg, "vm0")
	var unbound SetCounters[CoW]
	unbound.Add(fill[CoW](1))
	if dump := reg.DumpString(); strings.Contains(dump, "crimes_cow_total") || !strings.Contains(dump, "crimes_hypercalls_total") {
		t.Errorf("dump after binding hypercalls only:\n%s", dump)
	}
}
