/**
 * @file
 * Serialization of calibration profiles.
 *
 * Calibration is the expensive provider-side step; its output — the
 * CalibrationProfile — is a deployable artifact. This module
 * round-trips a whole profile through a line-oriented text format so
 * a fleet can calibrate once and load everywhere:
 *
 *     litmus-tables v2
 *     machine <name>
 *     baseline <lang> <privCpi> <sharedCpi> <instructions> <l3PerUs>
 *     solo <function> <privCpi> <sharedCpi>
 *     congestion <lang> <gen> <level> <priv> <shared> <total> <l3PerUs>
 *     performance <gen> <level> <priv> <shared> <total>
 *
 * The machine record is optional: a profile without one carries an
 * empty machine name, which requireMachine treats as a wildcard
 * (hand-built tables use it). Any header but `litmus-tables v2` is
 * fatal. Doubles are written with 17 significant digits, so a
 * save/load round-trip is bit-exact.
 */

#ifndef LITMUS_CORE_TABLE_IO_H
#define LITMUS_CORE_TABLE_IO_H

#include <iosfwd>
#include <string>

#include "core/calibration.h"

namespace litmus::pricing
{

/** Serialize a whole profile (v2) to a stream. */
void saveProfile(std::ostream &os, const CalibrationProfile &profile);

/** Serialize to a file; fatal() when unwritable. */
void saveProfile(const std::string &path,
                 const CalibrationProfile &profile);

/** Parse a v2 profile from a stream; fatal() on malformed input,
 *  naming `source:line` (`<stream>:line` when @p source is empty). */
CalibrationProfile loadProfile(std::istream &is,
                               const std::string &source = "");

/** Parse a profile from a file; fatal() when unreadable. */
CalibrationProfile loadProfile(const std::string &path);

} // namespace litmus::pricing

#endif // LITMUS_CORE_TABLE_IO_H
