package experiment

import (
	"fmt"
	"sort"
)

// Entry describes one reproducible exhibit.
type Entry struct {
	ID    string
	Title string
	Run   func(seed uint64, sc Scale) Result

	specs []*Spec // a swept exhibit's specs, rendered in turn
}

// Registry lists the exhibits ("1", "2", "5"–"17", "table1", …) in the
// order -fig all runs them. Every swept exhibit renders one spec or, for
// ext, two; Fig. 3's walkthrough and Fig. 15's timelines have cells of
// their own shape, and Fig. 2 and Table 1 make no sweep.
func Registry() []Entry {
	return []Entry{
		entry(fig1),
		{ID: "2", Title: "Traffic share by flow size", Run: fig2},
		{ID: "3", Title: "Fig. 3 walkthrough: ROPR recovers a lost packet", Run: func(s uint64, sc Scale) Result { return Fig3(s, sc) }},
		entry(fig5),
		entry(fig6),
		entry(fig7),
		entry(fig8),
		entry(fig9),
		entry(fig10),
		entry(fig11),
		entry(fig12),
		entry(fig13),
		entry(fig14),
		{ID: "15", Title: "Ongoing-flow throughput timelines", Run: func(s uint64, sc Scale) Result { return Fig15(s, sc) }},
		entry(fig16),
		entry(fig17),
		{ID: "table1", Title: "Startup/recovery design space", Run: func(uint64, Scale) Result { return render(table1) }},
		entry(extSizes, extCapacity),
		entry(aqm),
		entry(multihop),
		entry(adversity),
		entry(blackout),
		entry(misbehavior),
	}
}

// Lookup finds an entry by ID.
func Lookup(id string) (Entry, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Entry{}, fmt.Errorf("experiment: unknown exhibit %q (known: %v)", id, ids)
}
