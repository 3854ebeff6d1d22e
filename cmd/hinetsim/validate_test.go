package main

import (
	"math"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	// defaults are hinetsim's flag defaults; sz edits a copy per row.
	defaults := sizes{scenario: "hinet", n: 100, k: 8, theta: 30, alpha: 5, l: 2, reaffil: 3, churn: 10}
	cases := []struct {
		name     string
		sz       func(*sizes)
		drop     float64
		arrival  float64
		stall    int
		stallSet bool
		wantErr  string // substring, "" = valid
	}{
		{name: "all defaults", wantErr: ""},
		{name: "valid drop", drop: 0.05, wantErr: ""},
		{name: "drop at one", drop: 1, wantErr: ""},
		{name: "negative drop", drop: -0.1, wantErr: "-drop"},
		{name: "drop above one", drop: 1.5, wantErr: "-drop"},
		{name: "NaN drop", drop: math.NaN(), wantErr: "-drop"},
		{name: "valid arrival", arrival: 0.5, wantErr: ""},
		{name: "negative arrival", arrival: -2, wantErr: "-arrival"},
		{name: "NaN arrival", arrival: math.NaN(), wantErr: "-arrival"},
		{name: "valid stall window", stall: 50, stallSet: true, wantErr: ""},
		{name: "default stall off", stall: 0, stallSet: false, wantErr: ""},
		{name: "explicit zero stall window", stall: 0, stallSet: true, wantErr: "-stall-window"},
		{name: "negative stall window", stall: -3, stallSet: true, wantErr: "-stall-window"},
		{name: "negative stall window unset", stall: -3, stallSet: false, wantErr: "-stall-window"},
		{name: "hinet zero nodes", sz: func(s *sizes) { s.n = 0 }, wantErr: "N=0"},
		{name: "default theta exceeds n", sz: func(s *sizes) { s.n = 10 }, wantErr: "Theta=30"},
		{name: "theta exceeds n", sz: func(s *sizes) { s.theta, s.n = 20, 10 }, wantErr: "Theta=20"},
		{name: "n too small for theta heads", sz: func(s *sizes) { s.n, s.theta, s.l = 20, 12, 3 }, wantErr: "cannot host"},
		{name: "k exceeds n", sz: func(s *sizes) { s.n, s.k, s.theta = 50, 100, 8 }, wantErr: "-k"},
		{name: "k equals n", sz: func(s *sizes) { s.n, s.k, s.theta = 50, 50, 8 }, wantErr: ""},
		{name: "zero alpha", sz: func(s *sizes) { s.alpha = 0 }, wantErr: "-alpha"},
		{name: "onel theta exceeds n", sz: func(s *sizes) { s.scenario, s.n = "onel", 10 }, wantErr: "Theta=30"},
		{name: "mobility k exceeds n", sz: func(s *sizes) { s.scenario, s.n = "mobility", 5 }, wantErr: "-k"},
		{name: "fig3 ignores sizes", sz: func(s *sizes) { s.scenario, s.n = "fig3", 0 }, wantErr: ""},
		{name: "mobility zero nodes", sz: func(s *sizes) { s.scenario, s.n, s.k = "mobility", 0, 0 }, wantErr: "-n: the mobility scenario needs n >= 1"},
		{name: "emdg zero nodes", sz: func(s *sizes) { s.scenario, s.n, s.k = "emdg", 0, 0 }, wantErr: "-n: the emdg scenario"},
		{name: "coded zero nodes", sz: func(s *sizes) { s.scenario, s.n, s.k = "coded", 0, 0 }, wantErr: "-k: the coded scenario"},
		{name: "coded zero nodes one token", sz: func(s *sizes) { s.scenario, s.n, s.k = "coded", 0, 1 }, wantErr: "-n: the coded scenario"},
		{name: "multihop zero nodes", sz: func(s *sizes) { s.scenario, s.n, s.k = "multihop", 0, 0 }, wantErr: "-n: the multihop scenario"},
		{name: "multihop four nodes", sz: func(s *sizes) { s.scenario, s.n, s.k = "multihop", 4, 1 }, wantErr: "needs n >= 5"},
		{name: "multihop five nodes", sz: func(s *sizes) { s.scenario, s.n, s.k = "multihop", 5, 1 }, wantErr: ""},
		{name: "negative k", sz: func(s *sizes) { s.scenario, s.k = "mobility", -1 }, wantErr: "-k: token count must be non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sz := defaults
			if tc.sz != nil {
				tc.sz(&sz)
			}
			err := validateFlags(sz, tc.drop, tc.arrival, tc.stall, tc.stallSet)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
