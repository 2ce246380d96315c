package bufpool

import (
	"fmt"

	"repro/internal/metrics"
)

// The default pool self-registers with the default metrics registry:
// lease flow counters, the leak gauge (outstanding leases — nonzero at
// idle means a Release is missing somewhere; see docs/PERF.md for the
// ownership contract), and one outstanding gauge per size class so a leak
// also names the buffer size that leaked. Callback metrics read the
// pool's existing atomics, so the hot path pays nothing extra for being
// observable.
func init() {
	p := Default()
	r := metrics.Default()
	r.CounterFunc("jbs_bufpool_gets_total", "leases",
		"leases handed out by the default pool (including adopted and oversize)",
		func() int64 { return p.gets.Load() })
	r.CounterFunc("jbs_bufpool_puts_total", "leases",
		"leases fully released back to the default pool",
		func() int64 { return p.puts.Load() })
	r.CounterFunc("jbs_bufpool_misses_total", "leases",
		"Gets that allocated because their size class was empty",
		func() int64 { return p.misses.Load() })
	r.CounterFunc("jbs_bufpool_oversize_total", "leases",
		"Gets beyond the largest size class (direct allocations)",
		func() int64 { return p.oversize.Load() })
	r.GaugeFunc("jbs_bufpool_outstanding", "leases",
		"leases currently held (gets - puts); nonzero at idle means a leak",
		func() int64 { return p.Outstanding() })
	for i := 0; i <= numClasses; i++ {
		i := i
		size := -1
		if i < numClasses {
			size = classSize(i)
		}
		label := ClassStat{Size: size}.Label()
		r.GaugeFunc(fmt.Sprintf("jbs_bufpool_class_outstanding{class=%q}", label), "leases",
			"leases currently held per size class",
			func() int64 { return p.classGets[i].Load() - p.classPuts[i].Load() })
	}
}
