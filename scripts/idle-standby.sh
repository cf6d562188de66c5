#!/usr/bin/env bash
# idle-standby.sh checks a primary and its -replica-of standby in two legs,
# each a fresh pair: rtdbd serves a durable primary on PORT, a standby
# follows it (its own reads on PORT+1), and every step is bounded by timeout,
# so a hang is a failure.
#
#   - Idle link: both sit idle for IDLE seconds (default 4), then both are
#     sent SIGINT and must exit 0. On an idle link the primary only echoes the
#     standby's beacons, so the primary's report must show the standby's one
#     connection (net_conns_accepted 1) and at least one echoed beacon; a link
#     its listener cut for silence shows up as a second connection.
#   - Failover: the standby runs with -promote-after 3s. After IDLE seconds
#     idle it must not have promoted; then the primary is killed with
#     SIGKILL, and the standby must print `promoted:` within 6 seconds and
#     drain on SIGINT with exit 0.
#
#   scripts/idle-standby.sh BIN PORT OUT [IDLE]
#
# BIN is a directory holding an rtdbd binary. The idle leg's primary output
# is left in OUT, its standby's in OUT.standby; the failover leg's in
# OUT.failover and OUT.failover.standby.
set -u
bin=$1 port=$2 out=$3 idle=${4:-4}
tmp=$(mktemp -d)
pid= rpid=
trap 'kill -9 $pid $rpid 2>/dev/null; rm -rf "$tmp"' EXIT
log=$out
fail() {
	tail -n 20 "$log" "$log.standby"
	echo "idle-standby: $*" >&2
	exit 1
}
await() { # await FILE REGEXP PID [SECS]: FILE shows REGEXP while PID lives
	timeout "${4:-30}" bash -c "until grep -q '$2' '$1'; do kill -0 $3 2>/dev/null || exit 1; sleep 0.02; done"
}
stop() { # stop PID NAME: SIGINT, a bounded drain, exit 0
	kill -INT "$1"
	timeout 60 tail --pid="$1" -f /dev/null || fail "$2 did not drain within 60s"
	wait "$1" || fail "$2 exited non-zero"
}
pair() { # pair LOG LEG [STANDBY FLAGS...]: start a fresh primary and standby
	log=$1 leg=$2
	shift 2
	mkdir "$tmp/$leg" "$tmp/$leg.standby"
	"$bin/rtdbd" -dir "$tmp/$leg" -listen "127.0.0.1:$port" >"$log" 2>&1 &
	pid=$!
	await "$log" 'serving rtwire on' $pid || fail "the primary never served"
	"$bin/rtdbd" -dir "$tmp/$leg.standby" -replica-of "127.0.0.1:$port" -listen "127.0.0.1:$((port + 1))" "$@" >"$log.standby" 2>&1 &
	rpid=$!
	await "$log.standby" 'hot-standby reads on' $rpid || fail "the standby never served"
}

pair "$out" idle
sleep "$idle"
stop $rpid standby
stop $pid primary
awk '$1 == "net_conns_accepted" { a = $2 } $1 == "net_heartbeats_in" { h = $2 }
	END { printf "idle standby pair, %ss: net_conns_accepted %d, net_heartbeats_in %d\n", "'"$idle"'", a, h; exit !(a == 1 && h >= 1) }' "$out" \
	|| fail "want net_conns_accepted 1 (the standby's one link) and net_heartbeats_in >= 1"

pair "$out.failover" failover -promote-after 3s
sleep "$idle"
! grep -q 'promoted:' "$log.standby" || fail "the standby promoted against its idle, live primary"
disown $pid # no job notice for the SIGKILL
kill -9 $pid
pid=
start=$(date +%s%N)
await "$log.standby" 'promoted:' $rpid 6 || fail "the standby did not promote within 6s of the primary's SIGKILL"
took=$((($(date +%s%N) - start) / 1000000))
stop $rpid standby
grep 'promoted:' "$log.standby"
echo "failover leg: no promotion in ${idle}s idle; promoted ${took}ms after SIGKILL, drained"
