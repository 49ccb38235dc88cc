"""Suite-wide pytest configuration.

Test directories are not packages, so pytest puts this file's directory on
``sys.path``; modules here, such as ``summation``, are importable from every
test file.
"""
