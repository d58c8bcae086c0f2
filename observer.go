package regcast

// ObserverFuncs adapts plain functions to the Observer interface; nil
// fields are skipped. It is the quickest way to stream metrics from a run:
//
//	regcast.WithObserver(regcast.ObserverFuncs{
//		Round: func(rs regcast.RoundStats) { fmt.Println(rs.Round, rs.Informed) },
//	})
type ObserverFuncs struct {
	// Round is invoked as Observer.OnRound.
	Round func(RoundStats)
	// Informed is invoked as Observer.OnInformed.
	Informed func(node, round int)
}

// OnRound implements Observer.
func (o ObserverFuncs) OnRound(rs RoundStats) {
	if o.Round != nil {
		o.Round(rs)
	}
}

// OnInformed implements Observer.
func (o ObserverFuncs) OnInformed(node, round int) {
	if o.Informed != nil {
		o.Informed(node, round)
	}
}

// multiObserver fans callbacks out to several observers in order.
type multiObserver []Observer

func (m multiObserver) OnRound(rs RoundStats) {
	for _, o := range m {
		o.OnRound(rs)
	}
}

func (m multiObserver) OnInformed(node, round int) {
	for _, o := range m {
		o.OnInformed(node, round)
	}
}
