#!/usr/bin/env bash
# Enforce the plan-layer import boundary.
#
# internal/plan is the substrate-agnostic description of the algorithms:
# both the real engine (internal/core on mpi+ensio) and the simulated
# machine (internal/schedule on sim+parfs) interpret its compiled plans.
# If plan ever imports a substrate package the "one schedule, two
# substrates" invariant collapses into a dependency cycle, so CI pins it.
set -euo pipefail

cd "$(dirname "$0")/.."

forbidden='senkf/internal/(mpi|ensio|sim|parfs)$'

deps=$(go list -deps senkf/internal/plan)

if bad=$(grep -E "$forbidden" <<<"$deps"); then
    echo "FAIL: senkf/internal/plan must not depend on any substrate package:" >&2
    echo "$bad" >&2
    exit 1
fi

# internal/monitor is the live observability layer: it folds the trace
# stream against compiled plans and Eq. 7-10 budgets, so it must build on
# plan, trace and costmodel — but it watches both substrates through the
# event stream alone, duck-typing their error shapes, so it must never
# import one (or it could only monitor that substrate).
deps=$(go list -deps senkf/internal/monitor)

if bad=$(grep -E "$forbidden" <<<"$deps"); then
    echo "FAIL: senkf/internal/monitor must not depend on any substrate package:" >&2
    echo "$bad" >&2
    exit 1
fi

for need in senkf/internal/plan senkf/internal/trace senkf/internal/costmodel senkf/internal/runtimeobs; do
    if ! grep -qx "$need" <<<"$deps"; then
        echo "FAIL: senkf/internal/monitor no longer builds on $need" >&2
        exit 1
    fi
done

# internal/runtimeobs sits below the plan layer: pprof labels, the
# runtime/metrics sampler and hot-stage attribution are pure
# stdlib + trace machinery that plan (Problem.Prof), both engines, the
# monitor and the ledger all consume. It must import nothing above
# trace — especially not plan or a substrate — or the label set could
# not ride inside plan.Problem without a cycle.
deps=$(go list -deps senkf/internal/runtimeobs)
if bad=$(grep -E 'senkf/internal/(mpi|ensio|sim|parfs|plan|monitor|runlog|report|core|schedule|cycle)$' <<<"$deps"); then
    echo "FAIL: senkf/internal/runtimeobs must sit below the plan layer (stdlib + trace only):" >&2
    echo "$bad" >&2
    exit 1
fi
if ! grep -qx 'senkf/internal/trace' <<<"$deps"; then
    echo "FAIL: senkf/internal/runtimeobs no longer publishes through senkf/internal/trace" >&2
    exit 1
fi

# internal/runlog is the persistent run ledger: it archives what every
# substrate produced (trace, counters, report, monitor state), so like the
# monitor it must build on plan, trace, costmodel and report — and must
# never import a substrate, or the ledger could only describe that
# substrate's runs. internal/report stays substrate-free for the same
# reason (the bench collector, which does need the simulator, lives in
# report/bench above it).
for pkg in senkf/internal/runlog senkf/internal/report; do
    deps=$(go list -deps "$pkg")
    if bad=$(grep -E "$forbidden" <<<"$deps"); then
        echo "FAIL: $pkg must not depend on any substrate package:" >&2
        echo "$bad" >&2
        exit 1
    fi
done

deps=$(go list -deps senkf/internal/runlog)
for need in senkf/internal/plan senkf/internal/trace senkf/internal/costmodel senkf/internal/report; do
    if ! grep -qx "$need" <<<"$deps"; then
        echo "FAIL: senkf/internal/runlog no longer builds on $need" >&2
        exit 1
    fi
done

# internal/ckpt is the checkpoint store: it persists cycled state through
# ensio member files, so it must build on ensio — but it must never import
# mpi, sim or parfs (a checkpoint is pure data; reading one must not drag
# in an execution substrate), nor the cycle loop above it (cycle imports
# ckpt, not the reverse).
deps=$(go list -deps senkf/internal/ckpt)
if bad=$(grep -E 'senkf/internal/(mpi|sim|parfs|cycle)$' <<<"$deps"); then
    echo "FAIL: senkf/internal/ckpt must stay pure data (ensio + grid + workload only):" >&2
    echo "$bad" >&2
    exit 1
fi
if ! grep -qx 'senkf/internal/ensio' <<<"$deps"; then
    echo "FAIL: senkf/internal/ckpt no longer persists through senkf/internal/ensio" >&2
    exit 1
fi

# The engines must sit above the plan layer, not beside it: core and
# schedule each depend on plan, and plan on neither.
for eng in senkf/internal/core senkf/internal/schedule; do
    if ! go list -deps "$eng" | grep -qx 'senkf/internal/plan'; then
        echo "FAIL: $eng no longer builds on senkf/internal/plan" >&2
        exit 1
    fi
done

# The level dimension lives in the plan layer, not beside it: Spec.Levels
# and plan.Tag are the single source of level shape and message identity,
# so no engine may keep a private multilevel path. If any file outside
# internal/plan mentions "mlTag" or defines its own stage-tag arithmetic,
# a bespoke loop has crept back in.
if bad=$(grep -rn 'mlTag\|func observeML\|func runComputeML\|func runIOML' \
        --include='*.go' internal cmd examples 2>/dev/null | grep -v '_test.go'); then
    echo "FAIL: bespoke multilevel path re-introduced outside the plan layer:" >&2
    echo "$bad" >&2
    exit 1
fi

# Resilience is a policy of the one real engine, not a second body: the
# non-test code of internal/core creates exactly one mpi.World and runs
# exactly one rank body on it (execute, behind ExecutePlanLevels and
# RunSEnKFResilient). A second NewWorld or World.Run — or the retired
# resilient rank bodies — means a bespoke engine copy has crept back in.
core_src=$(find internal/core -name '*.go' ! -name '*_test.go')
worlds=$(cat $core_src | grep -c 'mpi\.NewWorld(' || true)
bodies=$(cat $core_src | grep -cE '\.Run\(func\([A-Za-z_]+ \*mpi\.Comm\)' || true)
if [ "$worlds" -ne 1 ] || [ "$bodies" -ne 1 ]; then
    echo "FAIL: internal/core must have one engine body (found $worlds mpi.NewWorld, $bodies World.Run bodies)" >&2
    exit 1
fi
if bad=$(grep -nE 'func (runIOResilient|runComputeResilient)\b' $core_src); then
    echo "FAIL: bespoke resilient engine body re-introduced in internal/core:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "OK: plan, monitor, report and runlog layers are substrate-free; runtimeobs sits below plan; ckpt builds on ensio only; core and schedule build on plan; no bespoke multilevel paths; core has one engine body"
