#!/bin/sh
# Full local gate: vet, build, and the whole test suite under the race
# detector (the fleet scheduler is the main concurrency surface), plus
# the chaos suite, a coverage floor on the core detection packages, and
# the deterministic ghostfuzz smoke runs.
set -eu
cd "$(dirname "$0")/.."

# matrix FLAGS PATTERN PKG runs `go test FLAGS -run PATTERN PKG`, first
# checking that every |-separated alternative of PATTERN selects at
# least one test in PKG: go test prints ok for a pattern that matches
# nothing, so a renamed test would otherwise drop out of a matrix
# silently.
matrix() {
	flags=$1 pattern=$2 pkg=$3
	old_ifs=$IFS
	IFS='|'
	for alt in $pattern; do
		if ! go test -list "$alt" "$pkg" | grep -q '^Test'; then
			echo "FAIL: -run alternative '$alt' selects no test in $pkg"
			exit 1
		fi
	done
	IFS=$old_ifs
	go test $flags -run "$pattern" "$pkg"
}

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "FAIL: gofmt -l lists unformatted files:"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> chaos suite under -race (fault-injection property tests)"
matrix '-race' 'TestChaos|TestEmptyFaultPlanByteIdentity' ./internal/ghostfuzz/

echo "==> crash-resume matrix under -race (kill at sched/mid/last offsets, torn tail, bit flip)"
matrix '-race' 'TestChaosCrashResume' ./internal/ghostfuzz/
matrix '-race' 'TestResumeReplaysCommittedHosts|TestResumeContinuesAttemptNumbering|TestResumeRejects|TestResumeInteriorCorruptionIsLoud|TestBreaker|TestAbortAfterFailureFraction' ./internal/fleet/
matrix '-race' 'TestTornTailRecovered|TestBitFlipIsLoud|TestInteriorTruncationIsLoud' ./internal/journal/

echo "==> sharded control-plane matrix under -race (shard loss, topology independence, bounded residency)"
matrix '-race' 'TestShardCrashResumeReproducesMergedDigest|TestResumeAfterTotalLoss|TestResumeRestartsHeaderlessShardJournal|TestMergedDigestIndependentOfShardTopology|TestBoundedResidentResults|TestShardBreakerQuarantines|TestShardErrorBudgetAborts' ./internal/fleetshard/

echo "==> daemon smoke under -race (boot, API sweep, graceful drain; locked-profile API rejections)"
matrix '-race' 'TestRunSmoke|TestRunFlagValidation' ./cmd/ghostbusterd/
matrix '-race' 'TestHTTPLockedProfileRejectsWeakening|TestCrashResumeDigestEquality|TestGracefulShutdownDrainsInFlightSweep' ./internal/daemon/

echo "==> supervision matrix under -race (wedge failover, wedge-crash resume, hedged stragglers, jittered retries, cancel-seal)"
matrix '-race' 'TestSupervisionChaos' ./internal/ghostfuzz/
matrix '-race' 'TestWatchdog|TestWedge|TestResumeOfCompletedWedgeRun' ./internal/fleetshard/
matrix '-race' 'TestHedged|TestCancelSealsPartialSummaryAndResumes|TestJittered|TestResultCancelledDetectsCasualties|TestSweepDigestsGolden' ./internal/fleet/
matrix '-race' 'TestRetryPolicy|TestWatchdog' ./internal/supervise/

echo "==> daemon overload control under -race (admission 429/Retry-After, readyz draining, slow SSE consumers never stall sweeps)"
matrix '-race' 'TestSweepAdmission|TestReadyzTracksDraining|TestSlowSubscriberDropsWithoutStallingSweeps|TestSubscriberChurnDuringSweeps' ./internal/daemon/

echo "==> next-gen family matrix under -race (evasive differential, naive-miss/counter-catch, boot+removable chaos, removable delta scheduling)"
matrix '-race' 'TestEvasive|TestNextGenNaiveMissCounterCatch|TestChaosBootRemovableLoudNeverSilent' ./internal/ghostfuzz/
matrix '-race' 'TestRemovableHotplugTriggersDeltaSweep' ./internal/daemon/

echo "==> alloc gate (nonzero OrderSeed adds nothing per entry to the warm diff path; ReadDir allocs linear in children; Win32 name check alloc-free)"
matrix '' 'TestScanOrderAllocs|TestOrderedWarmSweepAllocs' ./internal/core/
matrix '' 'TestReadDirAllocs' ./internal/ntfs/
matrix '' 'TestWin32VisibleAllocs' ./internal/winapi/

echo "==> native fuzz (UTF-16 name decode vs unicode/utf16, 10s)"
go test -run '^$' -fuzz '^FuzzDecodeUTF16$' -fuzztime 10s ./internal/ntfs/

echo "==> coverage floor (>= 70% on the detection core, cross-time/kmem truth sources, daemon, supervision, and profile store)"
go test -cover ./internal/core/ ./internal/ntfs/ ./internal/hive/ ./internal/crosstime/ ./internal/kmem/ ./internal/fleet/ ./internal/fleetshard/ ./internal/journal/ ./internal/daemon/ ./internal/profile/ ./internal/supervise/ |
	awk '
		/coverage:/ {
			pct = $5; sub(/%.*/, "", pct)
			printf "    %-32s %s%%\n", $2, pct
			if (pct + 0 < 70) { printf "FAIL: %s coverage %s%% < 70%%\n", $2, pct; bad = 1 }
		}
		END { exit bad }
	'

echo "==> perf gate (sweepbench vs committed BENCH_sweep.json, deterministic metrics)"
sh scripts/benchgate.sh

echo "==> ghostfuzz smoke (fixed seed, 50 cases)"
go run ./cmd/ghostfuzz -seed 1 -n 50 > /dev/null

echo "==> ghostfuzz chaos smoke (fixed seed, 25 faulted cases)"
go run ./cmd/ghostfuzz -seed 1 -n 25 -faulted > /dev/null

echo "==> ghostfuzz crash-resume smoke (fixed seed, 2 killed sweeps)"
go run ./cmd/ghostfuzz -seed 1 -crashed 2 > /dev/null

echo "==> ghostfuzz sharded crash-resume smoke (fixed seed, 2 sweeps, 3 shards)"
go run ./cmd/ghostfuzz -seed 1 -crashed 2 -shards 3 > /dev/null

echo "==> ghostfuzz supervision chaos smoke (fixed seed, wedge/straggler/jitter matrix, 3 shards)"
go run ./cmd/ghostfuzz -seed 131 -supervised 1 -shards 3 > /dev/null

echo "OK"
