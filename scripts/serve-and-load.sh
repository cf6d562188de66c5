#!/usr/bin/env bash
# serve-and-load.sh runs one two-process check of the serving stack: rtdbd
# serves on PORT (shard i on PORT+i), rtdbload drives it once every shard
# has printed its serving line, then rtdbd is sent SIGINT and drains. Both
# must exit 0, every book line (BOOK-…) either prints must be closed (end in
# ✓), rtdbd must print at least one, and rtdbload's output must match WANT.
# Every step is bounded by timeout, so a hang is a failure.
#
#   scripts/serve-and-load.sh BIN PORT SRV_OUT 'RTDBD_ARGS' 'RTDBLOAD_ARGS' [WANT]
#
# BIN is a directory holding rtdbd and rtdbload binaries. rtdbd's output is
# left in SRV_OUT for further checks. rtdbload gets -addr, or -shard-addrs
# when RTDBD_ARGS has -shards N > 1. WANT is an extended regexp, by default
# a closed query book.
set -u
bin=$1 port=$2 out=$3 srvargs=$4 loadargs=$5 want=${6:-'BOOK-queries: .* ✓'}

shards=1
set -- $srvargs
while [ $# -gt 0 ]; do
	[ "$1" = -shards ] && shards=$2
	shift
done
addrs=
for ((i = 0; i < shards; i++)); do
	addrs+=${addrs:+,}127.0.0.1:$((port + i))
done
target="-addr $addrs"
[ "$shards" -gt 1 ] && target="-shard-addrs $addrs"

"$bin/rtdbd" -listen "127.0.0.1:$port" $srvargs >"$out" 2>&1 &
pid=$!
trap 'kill -9 $pid 2>/dev/null' EXIT
fail() {
	tail -20 "$out"
	echo "serve-and-load: rtdbd $srvargs / rtdbload $loadargs: $*" >&2
	exit 1
}
# closed NAME: every book line on stdin is closed; rtdbd must print one.
closed() {
	local books
	books=$(grep 'BOOK-')
	[ -n "$books" ] || [ "$1" != rtdbd ] || fail "rtdbd printed no book line"
	[ -z "$books" ] || ! grep -v ' ✓$' <<<"$books" || fail "$1 printed an open book"
}

timeout 30 bash -c "until [ \$(grep -c 'serving rtwire on' '$out') -ge $shards ]; do
	kill -0 $pid 2>/dev/null || exit 1; sleep 0.02; done" || fail "rtdbd never served"
load=$(timeout 120 "$bin/rtdbload" $target $loadargs 2>&1) || { echo "$load" | tail -20; fail "rtdbload failed or timed out"; }
echo "$load" | grep -E "$want" || { echo "$load" | tail -20; fail "rtdbload printed nothing matching '$want'"; }
closed rtdbload <<<"$load"
kill -INT $pid
timeout 60 tail --pid=$pid -f /dev/null || fail "rtdbd did not drain within 60s"
wait $pid || fail "rtdbd exited non-zero"
closed rtdbd <"$out"
