package litereconfig

import (
	"testing"

	"litereconfig/internal/core"
)

// TestCorePolicyTokens: the facade maps exactly its exported Policy
// constants (and the empty default), not the CLI aliases or replay's
// forced-feature tokens.
func TestCorePolicyTokens(t *testing.T) {
	cases := map[Policy]core.Policy{
		"":                  core.PolicyFull,
		Full:                core.PolicyFull,
		MinCost:             core.PolicyMinCost,
		MaxContentResNet:    core.PolicyMaxContentResNet,
		MaxContentMobileNet: core.PolicyMaxContentMobileNet,
	}
	for in, want := range cases {
		if got, err := corePolicy(in); err != nil || got != want {
			t.Errorf("corePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []Policy{"FULL", " full", "litereconfig", "resnet", "mobilenet", "force-hog"} {
		if _, err := corePolicy(bad); err == nil {
			t.Errorf("corePolicy(%q) should error", bad)
		}
	}
}
