package experiments

import "hipster/internal/platform"

// Table2 reproduces the platform characterisation of Table 2 by running
// the stress microbenchmark through the power and performance models.
func Table2(spec *platform.Spec) []platform.CharacterizationRow {
	return platform.Characterize(spec)
}

// Table2Paper holds the paper's measured values, in the same row order
// as Table2 (big then small), for TestTable2MatchesPaper to compare.
var Table2Paper = []platform.CharacterizationRow{
	{CoreType: "Big A57", FreqGHz: "1.15", AllCoresW: 2.30, OneCoreW: 1.62, AllCoresIPS: 4260e6, OneCoreIPS: 2138e6},
	{CoreType: "Small A53", FreqGHz: "0.65", AllCoresW: 1.43, OneCoreW: 0.95, AllCoresIPS: 3298e6, OneCoreIPS: 826e6},
}
