package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// usage is a snapshot of the machine's CPU accounting (/proc/stat,
// all CPUs, in jiffies), taken around a pass so the report can say how
// much CPU time the host gave to other guests meanwhile.
type usage struct {
	steal, total uint64
}

func readUsage() usage {
	var u usage
	f, err := os.Open("/proc/stat")
	if err != nil {
		return u
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if sc.Scan() {
		fields := strings.Fields(sc.Text())
		for i, v := range fields[1:min(len(fields), 9)] { // user..steal; guest time is already in user
			x, _ := strconv.ParseUint(v, 10, 64)
			u.total += x
			if i == 7 {
				u.steal = x
			}
		}
	}
	return u
}

// stealShare is the share of all CPUs' time the hypervisor gave to
// other guests since start.
func (u usage) stealShare(start usage) float64 {
	return ratio(float64(u.steal-start.steal), float64(u.total-start.total))
}
