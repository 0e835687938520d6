package experiments

import (
	"fmt"

	"concilium/internal/core"
	"concilium/internal/wire"
)

// BandwidthConfig parameterizes the §4.4 reproduction.
type BandwidthConfig struct {
	// OverlaySizes to tabulate (the paper highlights 100,000).
	OverlaySizes []int
	// StripesPerPair and PacketsPerStripe match the paper's example
	// (100 stripes of 2 packets).
	StripesPerPair   int
	PacketsPerStripe int
}

// DefaultBandwidthConfig mirrors §4.4.
func DefaultBandwidthConfig() BandwidthConfig {
	return BandwidthConfig{
		OverlaySizes:     []int{1000, 10000, 100000, 1000000},
		StripesPerPair:   100,
		PacketsPerStripe: 2,
	}
}

// Bandwidth computes the §4.4 table across overlay sizes.
func Bandwidth(cfg BandwidthConfig) (Table, []wire.BandwidthReport, error) {
	if len(cfg.OverlaySizes) == 0 {
		return Table{}, nil, fmt.Errorf("experiments: bandwidth needs overlay sizes")
	}
	t := Table{
		Title: "Section 4.4: Concilium bandwidth requirements",
		Columns: []string{
			"overlay N", "routing entries", "advert bytes", "heavyweight MB/tree",
		},
	}
	var reports []wire.BandwidthReport
	for _, n := range cfg.OverlaySizes {
		mu, err := core.ExpectedOccupancy(n)
		if err != nil {
			return Table{}, nil, err
		}
		rep, err := wire.Budget(mu, n, cfg.StripesPerPair, cfg.PacketsPerStripe)
		if err != nil {
			return Table{}, nil, err
		}
		reports = append(reports, rep)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rep.OverlayN),
			fmt.Sprintf("%.1f", rep.RoutingEntries),
			fmt.Sprintf("%.0f", rep.AdvertBytes),
			fmt.Sprintf("%.1f", rep.HeavyweightMB),
		})
	}
	return t, reports, nil
}
