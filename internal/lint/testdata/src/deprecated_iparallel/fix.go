// Package fix builds plans through the deprecated constructors.
package fix

import (
	"repro/internal/lint/testdata/legacyplan"
	"repro/internal/pp"
)

// build uses the legacy constructor NewPlanByName replaced.
func build() *legacyplan.IParallel {
	return legacyplan.NewIParallel(nil, pp.Params{})
}
