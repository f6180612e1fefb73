// Command rpki-monitor polls publication points over the rsynclite
// protocol and reports classified change events: routine churn, transparent
// revocations, suspected stealthy deletions, RC shrinks, suspicious
// reissues and replacement RCs — the monitoring countermeasure the paper
// proposes.
//
// Usage:
//
//	rpki-monitor -server 127.0.0.1:8873 -modules arin,sprint,etb,continental [-interval 2s] [-min-severity info] [-once]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/monitor"
	"repro/internal/repo"
)

func main() {
	server := flag.String("server", "127.0.0.1:8873", "rsynclite server address")
	modules := flag.String("modules", "arin,sprint,etb,continental", "comma-separated module names to watch")
	interval := flag.Duration("interval", 2*time.Second, "polling interval")
	minSev := flag.String("min-severity", "info", "minimum severity to report: info, notice, warning, alert")
	once := flag.Bool("once", false, "take one baseline snapshot pass and exit")
	flag.Parse()

	var min monitor.Severity
	switch *minSev {
	case "info":
		min = monitor.Info
	case "notice":
		min = monitor.Notice
	case "warning":
		min = monitor.Warning
	case "alert":
		min = monitor.Alert
	default:
		fmt.Fprintf(os.Stderr, "unknown severity %q\n", *minSev)
		os.Exit(2)
	}

	names := strings.Split(*modules, ",")
	client := &repo.Client{Timeout: 10 * time.Second}
	watcher := monitor.NewWatcher()

	poll := func() {
		for _, module := range names {
			module = strings.TrimSpace(module)
			uri := repo.URI{Host: *server, Module: module}
			files, err := client.FetchAll(context.Background(), uri)
			if err != nil {
				fmt.Printf("%s fetch %s: %v\n", time.Now().Format(time.TimeOnly), module, err)
				continue
			}
			for _, e := range monitor.Filter(watcher.Observe(module, files), min) {
				fmt.Printf("%s %v\n", time.Now().Format(time.TimeOnly), e)
			}
		}
	}

	fmt.Printf("watching %d modules on %s every %v (min severity %s)\n", len(names), *server, *interval, min)
	poll() // baseline
	if *once {
		return
	}
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-tick.C:
			poll()
		case <-sig:
			return
		}
	}
}
