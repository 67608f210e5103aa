import warnings

# the hypothesis plugin imports this module to report a failing @given test,
# and on some versions that import warns (mypy_extensions.TypedDict is
# deprecated); under filterwarnings = error the warning would end the whole
# run with an INTERNALERROR, so the module is imported here, quietly
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

verdict_lines: list[str] = []


def record_verdict(line: str) -> None:
    verdict_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    # capture-proof home for the acceptance verdicts
    if not verdict_lines:
        return
    terminalreporter.section("acceptance verdicts")
    for line in verdict_lines:
        terminalreporter.write_line(line)
