#!/usr/bin/env bash
# Repo lint driver: runs every checker the environment supports and
# prints an explicit summary of what ran, so a skipped checker is
# visible instead of a silent gap.
#
#   go vet       — always, in the root module and in bench/e2e, and once
#                  more over internal/sim with -tags groupchaos (the
#                  root ./... never compiles chaos_on.go)
#   staticcheck  — pinned version; installed on demand when the module
#                  proxy is reachable
#   govulncheck  — pinned version; needs the network for the vuln DB
#
# Off the network (local dev containers), the external checkers are
# skipped with a notice. In CI ($CI set) a skip is a hard failure: the
# lint leg must never green-light a commit it only half-checked.
set -u -o pipefail

STATICCHECK_VERSION=2024.1.1
GOVULNCHECK_VERSION=v1.1.4

ran=()
skipped=()
failed=()

run_checker() {
    local name="$1"
    shift
    echo "=== ${name}"
    if "$@"; then
        ran+=("${name}")
    else
        failed+=("${name}")
    fi
}

skip_checker() {
    local name="$1" why="$2"
    skipped+=("${name}")
    if [[ -n "${CI:-}" ]]; then
        echo "=== ${name}: REQUIRED in CI but unavailable (${why})"
        failed+=("${name}")
    else
        echo "=== ${name}: skipped (${why})"
    fi
}

# Network probe: `go install` of the pinned tools is the only step that
# needs the proxy, so test exactly that capability.
online() {
    [[ "${GOFLAGS:-}" != *"-mod=vendor"* ]] || return 1
    GOPROXY=$(go env GOPROXY)
    [[ "${GOPROXY}" != "off" ]] || return 1
    command -v curl >/dev/null 2>&1 || return 0 # can't probe; let go install decide
    curl -fsI --max-time 10 https://proxy.golang.org >/dev/null 2>&1
}

ensure_tool() {
    local bin="$1" mod="$2"
    command -v "${bin}" >/dev/null 2>&1 && return 0
    online || return 1
    go install "${mod}" >/dev/null 2>&1 && command -v "${bin}" >/dev/null 2>&1
}

run_checker "go vet" go vet ./...
# bench/e2e is a module of its own, so the root ./... never reaches it.
run_checker "go vet (bench/e2e)" bash -c 'cd bench/e2e && go vet ./...'
# chaos_on.go builds only under the groupchaos tag of the CI race legs.
run_checker "go vet (groupchaos)" go vet -tags groupchaos ./internal/sim

if ensure_tool staticcheck "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}"; then
    run_checker "staticcheck" staticcheck ./...
else
    skip_checker "staticcheck" "offline and not preinstalled; pinned @${STATICCHECK_VERSION}"
fi

if ensure_tool govulncheck "golang.org/x/vuln/cmd/govulncheck@${GOVULNCHECK_VERSION}"; then
    run_checker "govulncheck" govulncheck ./...
else
    skip_checker "govulncheck" "offline and not preinstalled; pinned @${GOVULNCHECK_VERSION}"
fi

echo
echo "lint summary:"
echo "  ran:     ${ran[*]:-none}"
echo "  skipped: ${skipped[*]:-none}"
echo "  failed:  ${failed[*]:-none}"

if ((${#failed[@]} > 0)); then
    exit 1
fi
