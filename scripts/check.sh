#!/bin/sh
# Full local gate: vet, build, and the whole test suite under the race
# detector (the fleet scheduler is the main concurrency surface), a
# guard that every named race matrix still exists, the alloc gate, a
# coverage floor on the core detection packages, vet and tests of the
# nested bench module, the perf gate, and the deterministic ghostfuzz
# matrix smokes.
set -eu
cd "$(dirname "$0")/.."

# matrix FLAGS PATTERN PKG runs `go test FLAGS -run PATTERN PKG` after
# checking that every alternative of PATTERN selects a test (see
# scripts/matrix.sh, which CI runs too). The -race matrices below name
# tests that `go test -race ./...` has already run, so they only check
# that every named test still exists: deleting or renaming one fails
# the gate, and nothing runs twice.
matrix() { sh scripts/matrix.sh "$@"; }

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

echo "==> chaos suite (fault-injection property tests): names still select tests"
matrix -list 'TestChaos|TestEmptyFaultPlanByteIdentity' ./internal/ghostfuzz/

echo "==> fleet topology matrix (plain and sharded sweeps; kill at sched/mid/last, torn tail, bit flip; shard loss; wedge, hedge, jitter): names still select tests"
matrix -list 'TestFleetFuzz|TestFleetMatrix|TestSupervisionChaos|TestFleetBreakerJSONDeterministic' ./internal/ghostfuzz/

echo "==> crash-resume unit matrix: names still select tests"
matrix -list 'TestResumeReplaysCommittedHosts|TestResumeContinuesAttemptNumbering|TestResumeRejects|TestResumeInteriorCorruptionIsLoud|TestBreaker|TestAbortAfterFailureFraction' ./internal/fleet/
matrix -list 'TestTornTailRecovered|TestBitFlipIsLoud|TestInteriorTruncationIsLoud' ./internal/journal/

echo "==> sharded control-plane matrix (shard loss, topology independence, bounded residency, a shard failing past its retries): names still select tests"
matrix -list 'TestShardCrashResumeReproducesMergedDigest|TestResumeAfterTotalLoss|TestResumeRestartsHeaderlessShardJournal|TestMergedDigestIndependentOfShardTopology|TestBoundedResidentResults|TestShardRetriesExhaustedStaysLoud' ./internal/fleetshard/

echo "==> daemon smoke (boot, API sweep, graceful drain; locked-profile API rejections): names still select tests"
matrix -list 'TestRunSmoke|TestRunFlagValidation' ./cmd/ghostbusterd/
matrix -list 'TestHTTPLockedProfileRejectsWeakening|TestCrashResumeDigestEquality|TestGracefulShutdownDrainsInFlightSweep' ./internal/daemon/

echo "==> host retry jitter in the daemon's local sweep, 20 runs (its two sweeps must fail the same scan unit every time)"
matrix '-count=20' '^TestLocalSweepJittersHostRetries$' ./internal/daemon/

echo "==> supervision unit matrix (wedge failover, hedged stragglers, jittered retries, cancel-seal; the ghostfuzz rows run in the fleet topology matrix): names still select tests"
matrix -list 'TestWatchdog|TestWedge|TestResumeOfCompletedWedgeRun' ./internal/fleetshard/
matrix -list 'TestHedged|TestCancelSealsPartialSummaryAndResumes|TestJittered|TestResultCancelledDetectsCasualties|TestSweepDigestsGolden' ./internal/fleet/
matrix -list 'TestRetryPolicy|TestWatchdog' ./internal/supervise/

echo "==> kernel-memory walks under mutation (kernel and disk mutators vs a 4-lane ScanAll, clean and kmem-faulted; a nested arena read lock hangs): names still select tests"
matrix -list 'TestScanAllUnderKernelMutation|TestParallelScanAllUnderMutation' ./internal/core/

echo "==> daemon overload control (admission 429/Retry-After, readyz draining, slow SSE consumers never stall sweeps): names still select tests"
matrix -list 'TestSweepAdmission|TestReadyzTracksDraining|TestSlowSubscriberDropsWithoutStallingSweeps|TestSubscriberChurnDuringSweeps' ./internal/daemon/

echo "==> next-gen family matrix (evasive differential, naive-miss/counter-catch, boot+removable chaos, removable delta scheduling): names still select tests"
matrix -list 'TestEvasive|TestNextGenNaiveMissCounterCatch|TestChaosBootRemovableLoudNeverSilent' ./internal/ghostfuzz/
matrix -list 'TestRemovableHotplugTriggersDeltaSweep' ./internal/daemon/

echo "==> alloc gate (nonzero OrderSeed adds nothing per entry to the warm diff path; ReadDir allocs linear in children; Win32 name check alloc-free)"
matrix '' 'TestScanOrderAllocs|TestOrderedWarmSweepAllocs' ./internal/core/
matrix '' 'TestReadDirAllocs' ./internal/ntfs/
matrix '' 'TestWin32VisibleAllocs' ./internal/winapi/

echo "==> native fuzz (UTF-16 name decode vs unicode/utf16, 10s)"
go test -run '^$' -fuzz '^FuzzDecodeUTF16$' -fuzztime 10s ./internal/ntfs/

echo "==> native fuzz (ghostfuzz spec parser round trip, 10s)"
go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 10s ./internal/ghostfuzz/

echo "==> coverage floor (>= 70% on the detection core, cross-time/kmem truth sources, daemon, supervision, and profile store)"
sh scripts/coverage.sh ./internal/core/ ./internal/ntfs/ ./internal/hive/ ./internal/crosstime/ ./internal/kmem/ ./internal/fleet/ ./internal/fleetshard/ ./internal/journal/ ./internal/daemon/ ./internal/profile/ ./internal/supervise/

echo "==> bench module (its own go.mod; compiles against core, fleet and daemon APIs)"
(cd bench && go vet ./... && go test ./...)

echo "==> perf gate (sweepbench vs committed BENCH_sweep.json, deterministic metrics)"
sh scripts/benchgate.sh

echo "==> ghostfuzz matrix smokes (fixed seeds; together they run every host and fleet row)"
go run ./cmd/ghostfuzz -seed 1 -n 50 > /dev/null
go run ./cmd/ghostfuzz -seed 1 -n 25 -rows '^faulted-' > /dev/null
go run ./cmd/ghostfuzz -replay @testdata/ghostfuzz/corpus/seed-evasive-mix.spec > /dev/null
go run ./cmd/ghostfuzz -seed 1 -n 2 -rows / > /dev/null

echo "OK"
