// Package legacyplan stands in for a package that keeps deprecated plan
// constructors beside their replacement. It lives under testdata, so only
// the lint Loader (which resolves module imports from source) ever builds
// it; the deprecatedapi corpus fixtures call into it.
package legacyplan

import (
	"repro/internal/cl"
	"repro/internal/pp"
)

// IParallel stands in for the i-parallel plan.
type IParallel struct{ Params pp.Params }

// JParallel stands in for the j-parallel plan.
type JParallel struct{ Params pp.Params }

// NewIParallel creates the plan on the given context.
//
// Deprecated: new code should construct plans through NewPlanByName
// ("i-parallel").
func NewIParallel(ctx *cl.Context, params pp.Params) *IParallel {
	return &IParallel{Params: params}
}

// NewJParallel creates the plan on the given context.
//
// Deprecated: new code should construct plans through NewPlanByName
// ("j-parallel").
func NewJParallel(ctx *cl.Context, params pp.Params) *JParallel {
	return &JParallel{Params: params}
}
