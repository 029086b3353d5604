# Helpers of the frontier steps in workflows/tests.yml, which source this
# file from the repository root.  Each frontier job is checked against a
# closed form: it must print exactly the expected text.
set -euo pipefail
export PYTHONPATH=src

check() {  # check EXPECTED ARGV...: the job prints exactly EXPECTED
  expected=$1
  shift
  diff <(printf '%s\n' "$expected") <(timeout 300 python3 -m chaintrace.cli "$@")
}

morita_iso() {  # morita_iso SIZE ALGEBRA_LINE A HH_0 HH_1 HH_2: ISO in degrees 0..2
  local n=$1 expected="$2"$'\n'"matrix size: $1" algebra=$3 d
  shift 3
  for d in 0 1 2; do
    expected+=$'\n'"degree $d: HH_$d(M_$n(A)) = $1 -> HH_$d(A) = $1  [ISO]"
    shift
  done
  check "$expected"$'\n''verdict: ISO' morita "$algebra" --size "$n" --max-degree 2
}

exits() {  # exits STATUS MESSAGE ARGV...: the job exits STATUS within 10 s, naming MESSAGE on stderr
  local expected=$1 message=$2 status=0 err
  shift 2
  err=$(timeout 10 python3 -m chaintrace.cli "$@" 2>&1 >/dev/null) || status=$?
  if [[ $status -ne $expected || $err != *"$message"* ]]; then
    printf 'expected exit %s naming "%s" from: %s\ngot exit %s: %s\n' "$expected" "$message" "$*" "$status" "$err" >&2
    return 1
  fi
}

refuses() {  # refuses MESSAGE ARGV...: the job exits 4 within 10 s, naming MESSAGE on stderr
  exits 4 "$@"
}
