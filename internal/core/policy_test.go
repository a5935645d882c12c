package core

import (
	"testing"

	"litereconfig/internal/feat"
)

// TestParsePolicy pins the one policy-name table against every token
// the command-line, replay-override and public-facade parsers accept:
// each must map to the same (Policy, forced feature) pair, and
// Scheduler.Name must round-trip through PolicyByName.
func TestParsePolicy(t *testing.T) {
	type want struct {
		p Policy
		k feat.Kind
	}
	cases := map[string]want{
		// -policies / -policy tokens and their aliases; matching ignores
		// case and surrounding space, and "" is the default.
		"":                     {PolicyFull, 0},
		"full":                 {PolicyFull, 0},
		"litereconfig":         {PolicyFull, 0},
		"LiteReconfig":         {PolicyFull, 0},
		"mincost":              {PolicyMinCost, 0},
		"MinCost":              {PolicyMinCost, 0},
		" mincost ":            {PolicyMinCost, 0},
		"maxcontent-resnet":    {PolicyMaxContentResNet, 0},
		"resnet":               {PolicyMaxContentResNet, 0},
		"maxcontent-mobilenet": {PolicyMaxContentMobileNet, 0},
		"mobilenet":            {PolicyMaxContentMobileNet, 0},
		// Replay's forced-feature overrides.
		"FORCE-HOG":         {PolicyForceFeature, feat.HOG},
		" force-resnet50 ":  {PolicyForceFeature, feat.ResNet50},
		"force-mobilenetv2": {PolicyForceFeature, feat.MobileNetV2},
	}
	for _, k := range feat.HeavyKinds() {
		cases["force-"+k.String()] = want{PolicyForceFeature, k}
	}
	for tok, w := range cases {
		p, k, err := ParsePolicy(tok)
		if err != nil || p != w.p || k != w.k {
			t.Errorf("ParsePolicy(%q) = %v, %v, %v; want %v, %v", tok, p, k, err, w.p, w.k)
		}
	}
	for _, bad := range []string{"selsa", "force-", "force-light", "force-bogus",
		"LiteReconfig-MinCost", "full,mincost"} {
		if _, _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) should error", bad)
		}
	}

	// Recorded names: the inverse of Scheduler.Name for every variant.
	for _, p := range []Policy{PolicyFull, PolicyMinCost, PolicyMaxContentResNet, PolicyMaxContentMobileNet} {
		name := (&Scheduler{opts: Options{Policy: p}}).Name()
		if gp, gk, err := PolicyByName(name); err != nil || gp != p || gk != 0 {
			t.Errorf("PolicyByName(%q) = %v, %v, %v; want %v", name, gp, gk, err, p)
		}
	}
	for _, k := range feat.HeavyKinds() {
		name := (&Scheduler{opts: Options{Policy: PolicyForceFeature, ForcedFeature: k}}).Name()
		if gp, gk, err := PolicyByName(name); err != nil || gp != PolicyForceFeature || gk != k {
			t.Errorf("PolicyByName(%q) = %v, %v, %v; want force %v", name, gp, gk, err, k)
		}
	}
	for _, bad := range []string{"", "full", "LiteReconfig-ForceFeature",
		"LiteReconfig-Force-light", "LiteReconfig-Force-HOG"} {
		if _, _, err := PolicyByName(bad); err == nil {
			t.Errorf("PolicyByName(%q) should error", bad)
		}
	}
}
