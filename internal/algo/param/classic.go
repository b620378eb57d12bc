package param

// classics are the classic BNP algorithms that are pure points of the
// component space, sorted by name. The engine is their only
// implementation: internal/algo/bnp binds these names to their combos,
// and golden digests there pin their schedules.
var classics = [...]Registration{
	{"DLS", Combo{MetricDL, RuleEST, SlotNonInsertion, RegimeDynamic},
		"Sih/Lee 1993: highest dynamic level (static level minus start) each step"},
	{"ETF", Combo{MetricSL, RuleEST, SlotNonInsertion, RegimeDynamic},
		"Hwang/Chow/Anger/Lee 1989: globally earliest-starting ready node each step"},
	{"HLFET", Combo{MetricSL, RuleEST, SlotNonInsertion, RegimeStatic},
		"Adam/Chandy/Dickson 1974: static levels, earliest start, no insertion"},
	{"MCP", Combo{MetricALAP, RuleEST, SlotInsertion, RegimeStatic},
		"Wu/Gajski 1990: ALAP-list order, earliest start, insertion"},
}

// Registration is one named classic combo.
type Registration struct {
	// Name is the algorithm's paper name, e.g. "MCP".
	Name string
	// Combo is the component combination it denotes.
	Combo Combo
	// Doc is a one-line description.
	Doc string
}

// Lookup returns the classic combo named name.
func Lookup(name string) (Combo, bool) {
	for _, reg := range classics {
		if reg.Name == name {
			return reg.Combo, true
		}
	}
	return Combo{}, false
}

// Named returns the classic combos sorted by name.
func Named() []Registration { return append([]Registration(nil), classics[:]...) }
