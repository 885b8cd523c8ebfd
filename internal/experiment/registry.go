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
}

// Registry lists the exhibits ("1", "2", "5"–"17", "table1", …) in the
// order -fig all runs them. Every swept exhibit is a spec; Fig. 3's
// walkthrough and Fig. 15's timelines have cells of their own shape, and
// Fig. 2 and Table 1 make no sweep.
func Registry() []Entry {
	return []Entry{
		fig1.entry(),
		{"2", "Traffic share by flow size", fig2},
		{"3", "Fig. 3 walkthrough: ROPR recovers a lost packet", func(s uint64, sc Scale) Result { return Fig3(s, sc) }},
		fig5.entry(),
		fig6.entry(),
		fig7.entry(),
		fig8.entry(),
		fig9.entry(),
		fig10.entry(),
		fig11.entry(),
		fig12.entry(),
		fig13.entry(),
		fig14.entry(),
		{"15", "Ongoing-flow throughput timelines", func(s uint64, sc Scale) Result { return Fig15(s, sc) }},
		fig16.entry(),
		fig17.entry(),
		{"table1", "Startup/recovery design space", func(uint64, Scale) Result { return render(table1) }},
		{"ext", "Extensions: initial burst & reduced proactive budget", extensions},
		aqm.entry(),
		multihop.entry(),
		adversity.entry(),
		blackout.entry(),
		misbehavior.entry(),
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
