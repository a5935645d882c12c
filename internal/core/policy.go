package core

import (
	"fmt"
	"strings"

	"litereconfig/internal/feat"
)

// DefaultSafetyFactor shrinks an SLO to the planning budget the
// scheduler optimizes against, so that latency jitter keeps the P95
// under the objective. The serving engine and the fleet score
// feasibility with the same headroom.
const DefaultSafetyFactor = 0.88

// Prefixes of a Table 4 forced-feature variant: the token ("force-hog")
// and the recorded name ("LiteReconfig-Force-hog").
const (
	forceToken = "force-"
	forceName  = "LiteReconfig-Force-"
)

// policyTokens lists each selectable variant's flag token first, then
// its aliases.
var policyTokens = []struct {
	policy Policy
	tokens []string
}{
	{PolicyFull, []string{"full", "litereconfig"}},
	{PolicyMinCost, []string{"mincost"}},
	{PolicyMaxContentResNet, []string{"maxcontent-resnet", "resnet"}},
	{PolicyMaxContentMobileNet, []string{"maxcontent-mobilenet", "mobilenet"}},
}

// ParsePolicy maps a policy token (a -policies flag entry, a replay
// policy override, the public facade's policy name) to the scheduler
// variant and, for "force-<feature>", the forced heavy feature; the
// forced feature is zero for every other variant. Matching ignores case
// and surrounding space, and the empty token is the full policy.
// Callers that do not offer forced-feature runs reject
// PolicyForceFeature themselves.
func ParsePolicy(token string) (Policy, feat.Kind, error) {
	t := strings.ToLower(strings.TrimSpace(token))
	if t == "" {
		return PolicyFull, 0, nil
	}
	for _, e := range policyTokens {
		for _, name := range e.tokens {
			if t == name {
				return e.policy, 0, nil
			}
		}
	}
	if rest, ok := strings.CutPrefix(t, forceToken); ok {
		if k, ok := feat.KindByName(rest); ok && k.Heavy() {
			return PolicyForceFeature, k, nil
		}
	}
	return 0, 0, fmt.Errorf("core: unknown policy %q", token)
}

// PolicyByName inverts Scheduler.Name: it maps a recorded decision's
// policy name back to the variant and forced feature.
func PolicyByName(name string) (Policy, feat.Kind, error) {
	for _, e := range policyTokens {
		if name == e.policy.String() {
			return e.policy, 0, nil
		}
	}
	if rest, ok := strings.CutPrefix(name, forceName); ok {
		if k, ok := feat.KindByName(rest); ok && k.Heavy() {
			return PolicyForceFeature, k, nil
		}
		return 0, 0, fmt.Errorf("core: unknown forced feature in policy %q", name)
	}
	return 0, 0, fmt.Errorf("core: unknown recorded policy %q", name)
}
