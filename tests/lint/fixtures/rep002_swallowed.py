"""REP104 zero-hop fixtures: handlers that swallow BudgetExhaustedError."""


def swallows_everything(run):
    try:
        run()
    except:  # repro-lint-expect: REP104
        pass


def swallows_broad(run):
    try:
        run()
    except Exception:  # repro-lint-expect: REP104
        pass


def drops_the_signal(run):
    try:
        run()
    except BudgetExhaustedError:  # repro-lint-expect: REP104
        pass


def handles_exhaustion(run, log):
    try:
        run()
    except BudgetExhaustedError:
        log("budget exhausted; falling back to derived costs")


def narrow_catch(run, log):
    try:
        run()
    except ValueError:
        log("bad value")


def justified(run):
    try:
        run()
    except Exception:  # repro-lint: off[REP104]
        pass


# Module level: the handler of a top-level ``try`` is summarized too.
try:
    import_time_setup()
except Exception:  # repro-lint-expect: REP104
    pass
