package main

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/core"
)

// sizes are the flags a scenario sizes its network and token set from.
type sizes struct {
	scenario                              string
	n, k, theta, alpha, l, reaffil, churn int
}

// hinetConfig is the HiNet adversary the hinet and onel scenarios run on:
// a (T, L)-HiNet with Theorem 1's phase length T = k + α·L for hinet, a
// (1, L)-HiNet replacing one head every round for onel. ok is false for
// every other scenario.
func (sz sizes) hinetConfig() (cfg adversary.HiNetConfig, ok bool) {
	cfg = adversary.HiNetConfig{
		N: sz.n, Theta: sz.theta, L: sz.l,
		Reaffiliations: sz.reaffil, ChurnEdges: sz.churn,
	}
	switch sz.scenario {
	case "hinet":
		cfg.T = core.Theorem1T(sz.k, sz.alpha, sz.l)
	case "onel":
		cfg.T, cfg.HeadChurn = 1, 1
	default:
		return cfg, false
	}
	return cfg, true
}

// minNodes is the smallest -n the generator behind each of these
// scenarios can build: one node for the mobility, edge-Markovian and
// 1-interval (coded) adversaries, and five for multihop, whose random
// connected base graph carries 2n edges and so needs 2n <= n(n-1)/2.
var minNodes = map[string]int{"mobility": 1, "emdg": 1, "coded": 1, "multihop": 5}

// validateFlags rejects flag values that would otherwise reach the engine
// as undefined behaviour or a panic: a NaN or negative -drop probability
// (the injector's comparisons would silently never or always fire), a
// -drop above 1 (same), a NaN or negative -arrival rate (the Poisson
// sampler would spin or inject nothing while looking armed), a zero or
// negative -stall-window given explicitly (0 only means "watchdog off" as
// the untouched default; asking for it is a misconfiguration), more tokens
// than nodes, a negative token count (or none for coded, whose decoder
// needs a basis of at least one token), and network sizes the scenario's
// generator cannot build.
// stallSet reports whether -stall-window appeared on the command line.
func validateFlags(sz sizes, drop, arrival float64, stallWindow int, stallSet bool) error {
	if math.IsNaN(drop) || drop < 0 || drop > 1 {
		return fmt.Errorf("-drop: loss probability must be in [0, 1] (got %v)", drop)
	}
	if math.IsNaN(arrival) || arrival < 0 {
		return fmt.Errorf("-arrival: rate must be a non-negative number of tokens per round (got %v)", arrival)
	}
	if stallWindow < 0 || (stallSet && stallWindow == 0) {
		return fmt.Errorf("-stall-window: window must be a positive round count (got %d); omit the flag to disable the watchdog", stallWindow)
	}
	switch sz.scenario {
	case "fig1", "fig3":
		return nil // fixed figures: the size flags are unused
	case "hinet":
		if sz.alpha < 1 {
			return fmt.Errorf("-alpha: progress coefficient must be positive (got %d)", sz.alpha)
		}
	case "coded":
		if sz.k < 1 {
			return fmt.Errorf("-k: the coded scenario needs at least 1 token (got %d)", sz.k)
		}
	}
	if sz.k < 0 {
		return fmt.Errorf("-k: token count must be non-negative (got %d)", sz.k)
	}
	if least, ok := minNodes[sz.scenario]; ok && sz.n < least {
		return fmt.Errorf("-n: the %s scenario needs n >= %d (got %d)", sz.scenario, least, sz.n)
	}
	if cfg, ok := sz.hinetConfig(); ok {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("-n %d -theta %d -l %d: %w", sz.n, sz.theta, sz.l, err)
		}
	}
	if sz.k > sz.n {
		return fmt.Errorf("-k: %d tokens exceed the %d nodes of -n", sz.k, sz.n)
	}
	return nil
}
