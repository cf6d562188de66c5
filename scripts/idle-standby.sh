#!/usr/bin/env bash
# idle-standby.sh checks that an idle replication link holds: rtdbd serves a
# durable primary on PORT, a -replica-of standby follows it (its own reads on
# PORT+1), both sit idle for IDLE seconds (default 4), then both are sent
# SIGINT and must exit 0. On an idle link the primary only echoes the
# standby's beacons, so the primary's report must show the standby's one
# connection (net_conns_accepted 1) and at least one echoed beacon; a link
# its listener cut for silence shows up as a second connection. Every step is
# bounded by timeout, so a hang is a failure.
#
#   scripts/idle-standby.sh BIN PORT OUT [IDLE]
#
# BIN is a directory holding an rtdbd binary. The primary's output is left
# in OUT, the standby's in OUT.standby.
set -u
bin=$1 port=$2 out=$3 idle=${4:-4}
pdir=$(mktemp -d) rdir=$(mktemp -d)
pid= rpid=
trap 'kill -9 $pid $rpid 2>/dev/null; rm -rf "$pdir" "$rdir"' EXIT
fail() {
	tail -n 20 "$out" "$out.standby"
	echo "idle-standby: $*" >&2
	exit 1
}
await() { # await FILE REGEXP PID: FILE shows REGEXP while PID lives
	timeout 30 bash -c "until grep -q '$2' '$1'; do kill -0 $3 2>/dev/null || exit 1; sleep 0.02; done"
}
stop() { # stop PID NAME: SIGINT, a bounded drain, exit 0
	kill -INT "$1"
	timeout 60 tail --pid="$1" -f /dev/null || fail "$2 did not drain within 60s"
	wait "$1" || fail "$2 exited non-zero"
}

"$bin/rtdbd" -dir "$pdir" -listen "127.0.0.1:$port" >"$out" 2>&1 &
pid=$!
await "$out" 'serving rtwire on' $pid || fail "the primary never served"
"$bin/rtdbd" -dir "$rdir" -replica-of "127.0.0.1:$port" -listen "127.0.0.1:$((port + 1))" >"$out.standby" 2>&1 &
rpid=$!
await "$out.standby" 'hot-standby reads on' $rpid || fail "the standby never served"
sleep "$idle"
stop $rpid standby
stop $pid primary
awk '$1 == "net_conns_accepted" { a = $2 } $1 == "net_heartbeats_in" { h = $2 }
	END { printf "idle standby pair, %ss: net_conns_accepted %d, net_heartbeats_in %d\n", "'"$idle"'", a, h; exit !(a == 1 && h >= 1) }' "$out" \
	|| fail "want net_conns_accepted 1 (the standby's one link) and net_heartbeats_in >= 1"
