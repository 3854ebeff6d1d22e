package main

import (
	"fmt"
)

// digest is the part of sim.Metrics that pins a run's behaviour.
type digest struct {
	Rounds     int
	Messages   int64
	Tokens     int64
	Bytes      int64
	Drops      int64
	Completion int
}

func digestOf(o *outcome) digest {
	m := o.met
	return digest{m.Rounds, m.Messages, m.TokensSent, m.BytesSent, m.Drops, m.CompletionRound}
}

// pinned holds each workload's digest at its default size and seed 1, as
// the program produced it when the benchmark was written. A change that
// alters what a run does, not only how fast, breaks it.
var pinned = map[string]digest{
	"model-check":   {Rounds: 45, Messages: 3130, Tokens: 3130, Bytes: 0, Drops: 0, Completion: 45},
	"alg1-stream":   {Rounds: 520, Messages: 48513, Tokens: 48513, Bytes: 2280111, Drops: 0, Completion: 58},
	"alg1-observed": {Rounds: 520, Messages: 56614, Tokens: 45533, Bytes: 2217618, Drops: 28700, Completion: 85},
	"alg2-churn":    {Rounds: 315, Messages: 33286, Tokens: 257291, Bytes: 0, Drops: 0, Completion: 315},
}

// verify is the per-iteration output oracle: the pinned digest on the
// default inputs, and on every seed the checks that hold for any input.
// The Definition-8 verdict is checked where it is made, in iterate.
func (p *plan) verify(o *outcome, defaultInputs bool) error {
	met := o.met
	if defaultInputs {
		if got, want := digestOf(o), pinned[p.name]; got != want {
			return fmt.Errorf("metrics digest %+v, pinned %+v", got, want)
		}
	}
	if !met.Complete {
		return fmt.Errorf("dissemination incomplete: %v", met)
	}
	if p.alpha > 0 && (met.CompletionRound < 1 || met.CompletionRound > p.phases*p.T) {
		return fmt.Errorf("Algorithm 1 completed at round %d, past the Theorem-1 budget %d", met.CompletionRound, p.phases*p.T)
	}
	if p.arrivals {
		// Completion under arrivals means every injected token, the
		// initial batch included, was disseminated and collected.
		if met.TokensInjected == 0 || met.TokensCollected != met.TokensInjected+k || met.OutstandingTokens != 0 {
			return fmt.Errorf("arrivals: injected %d + %d initial, collected %d, outstanding %d",
				met.TokensInjected, k, met.TokensCollected, met.OutstandingTokens)
		}
	} else {
		for v, nd := range o.nodes {
			if got := nd.Tokens().Len(); got != k {
				return fmt.Errorf("node %d ends with %d of %d tokens", v, got, k)
			}
		}
	}
	if o.sinks != nil {
		if o.metricsLines != met.Rounds {
			return fmt.Errorf("metrics JSONL has %d lines for %d rounds", o.metricsLines, met.Rounds)
		}
		initial := 0
		for _, s := range o.assign.Initial {
			initial += s.Len()
		}
		if got := met.FirstDeliveries + int64(initial); got != int64(p.n*k) {
			return fmt.Errorf("provenance: %d first deliveries + %d initial holdings, want n·k = %d",
				met.FirstDeliveries, initial, p.n*k)
		}
	}
	return nil
}
