package pipeline

// Burst suppression implements the paper's §VII-B proposal: bursting
// noises (knocks, object strikes, rubbing) span the whole frequency band
// — including the probe band — but last only a few frames. Exploiting
// exactly the "short duration" property the paper suggests, frames whose
// post-subtraction band occupancy is implausibly wide are treated as
// burst-contaminated and temporally interpolated from their clean
// neighbors before smoothing and binarization.

// BurstConfig parameterizes suppression. The zero value disables it.
type BurstConfig struct {
	// Enabled turns suppression on.
	Enabled bool
	// OccupancyThreshold is the fraction of band bins that must be
	// active (above the energy gate) for a frame to be burst-suspect;
	// finger blobs occupy a narrow band, bursts light up most of it.
	// Zero means 0.45.
	OccupancyThreshold float64
	// MaxFrames is the longest run of suspect frames still treated as a
	// burst (longer runs are assumed to be real wideband events the
	// pipeline should not silently erase). Zero means 16 (~370 ms: an
	// 8192-sample STFT window smears a short knock across ~8 hops, so
	// a 100 ms transient contaminates 12+ frames).
	MaxFrames int
}

// DefaultBurstConfig returns the calibrated suppression settings.
func DefaultBurstConfig() BurstConfig {
	return BurstConfig{Enabled: true, OccupancyThreshold: 0.40, MaxFrames: 16}
}

// limits resolves the zero-value defaults: the occupancy fraction that
// makes a frame burst-suspect and the longest run still repaired.
func (c BurstConfig) limits() (occupancy float64, maxRun int) {
	occupancy, maxRun = c.OccupancyThreshold, c.MaxFrames
	if occupancy == 0 {
		occupancy = 0.45
	}
	if maxRun == 0 {
		maxRun = 16
	}
	return occupancy, maxRun
}
