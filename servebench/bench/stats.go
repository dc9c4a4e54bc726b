package bench

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between the closest ranks (the estimator NumPy and R
// use by default). sorted must be ascending; an empty slice yields 0.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Median sorts a copy of xs and returns its median.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Quantile(s, 0.5)
}

// Beyond counts the samples of sorted strictly greater than x.
func Beyond(sorted []float64, x float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > x })
}

// Scrape is one parsed Prometheus text exposition: series (name plus
// label set, exactly as exposed) to value.
type Scrape map[string]float64

// ParseScrape reads the Prometheus 0.0.4 text format. Comment lines are
// skipped; timestamps, if any, are ignored.
func ParseScrape(r io.Reader) (Scrape, error) {
	s := Scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the series; label values may hold spaces, so
		// split after the closing brace when there is one.
		cut := strings.LastIndexByte(line, '}')
		rest := line[cut+1:]
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		series := line[:cut+1]
		if cut < 0 {
			series = fields[0]
			fields = fields[1:]
			if len(fields) == 0 {
				continue
			}
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		s[series] = v
	}
	return s, sc.Err()
}

// Delta is after[series] - before[series]; a series missing on either
// side counts as 0 there.
func Delta(before, after Scrape, series string) float64 {
	return after[series] - before[series]
}

// HistMean is the mean of the observations a histogram received between
// two scrapes: Δ(name_sum) / Δ(name_count), or 0 without observations.
func HistMean(before, after Scrape, name string) float64 {
	n := Delta(before, after, name+"_count")
	if n <= 0 {
		return 0
	}
	return Delta(before, after, name+"_sum") / n
}

// Ratio is num/den, or 0 when den is 0.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
