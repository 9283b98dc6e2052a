#!/usr/bin/env bash
# fma_gate.sh — no fused float multiply-add in the simulation packages.
#
# The Go spec lets a compiler fuse x*y + z into one FMA instruction,
# which rounds once instead of twice, so the same source can print
# different numbers on different architectures. amd64 never fuses;
# arm64, ppc64le, s390x and riscv64 do, unless the product is wrapped
# in an explicit float64(...) conversion. This script cross-compiles
# the simulation packages for those four with -gcflags=-S and fails on
# any fused float mnemonic. The one allowed fused op is an explicit
# math.FMA call, which rounds once on every architecture by definition.
# Integer multiply-adds (arm64 MADD/MSUB) are not float ops and pass.
#
# A private GOCACHE makes every listed package compile, and so print
# its assembly, on each run. The standard library cross-compiles from
# GOROOT, so nothing is downloaded.
#
# Usage: scripts/fma_gate.sh
set -euo pipefail

cd "$(dirname "$0")/.."

PKGS=(. ./internal/disk ./internal/engine ./internal/policy ./internal/revagg
	./internal/cache ./internal/future ./internal/layout ./internal/trace
	./internal/multi ./internal/experiments ./internal/report)
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail=0
for arch in arm64 ppc64le s390x riscv64; do
	case "$arch" in
	arm64 | riscv64) ops='FMADDD|FMSUBD|FNMADDD|FNMSUBD' ;;
	*) ops='FMADD|FMSUB|FNMADD|FNMSUB' ;;
	esac
	GOCACHE="$WORK/cache" GOOS=linux GOARCH="$arch" \
		go build -gcflags=-S -o /dev/null "${PKGS[@]}" 2>"$WORK/$arch.s"
	# An instruction line reads "\t0x0024 00036 (file.go:12)\tOP\targs".
	grep -E $'\t('"$ops"$')\t' "$WORK/$arch.s" >"$WORK/$arch.fused" || true
	while IFS= read -r line; do
		pos="$(sed -E 's/^[^(]*\(([^)]*)\).*$/\1/' <<<"$line")"
		file="${pos%:*}"
		n="${pos##*:}"
		if [[ -f "$file" ]] && sed -n "${n}p" "$file" | grep -q 'math\.FMA('; then
			continue
		fi
		echo "$arch: fused float op at $pos: $(awk -F'\t' '{print $3, $4}' <<<"$line")"
		fail=1
	done <"$WORK/$arch.fused"
	echo "== $arch: $(wc -l <"$WORK/$arch.fused") fused ops checked"
done
if [[ $fail -ne 0 ]]; then
	echo "FAIL: wrap each product above in float64(...) so it rounds on its own"
	exit 1
fi
echo "PASS: only explicit math.FMA calls fuse"
