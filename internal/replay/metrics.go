package replay

import "chameleon/internal/obs"

// Buffer observability: fills (item entered free space), hits (an offered or
// inserted item replaced a stored one), rejections (reservoir skipped the
// item), evictions (class-balanced cross-class displacement) and sample
// draws. Handles live at package level so buffer operations stay a couple of
// atomic adds — the stores sit inside the per-sample training loop.
var (
	reservoirOffers = obs.Default().Counter("replay_reservoir_offers_total")
	reservoirFills  = obs.Default().Counter("replay_reservoir_fills_total")
	reservoirHits   = obs.Default().Counter("replay_reservoir_replacements_total")
	reservoirSkips  = obs.Default().Counter("replay_reservoir_rejections_total")
	balancedFills   = obs.Default().Counter("replay_classbalanced_fills_total")
	balancedHits    = obs.Default().Counter("replay_classbalanced_replacements_total")
	balancedEvicts  = obs.Default().Counter("replay_classbalanced_evictions_total")
	samplesDrawn    = obs.Default().Counter("replay_samples_drawn_total")
)
