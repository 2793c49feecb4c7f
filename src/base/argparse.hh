/**
 * @file
 * Small command-line argument parser for the tools: long options with
 * values (`--workload stencil-default`, `--insts=100000`), boolean
 * flags (`--json`), positional arguments, and generated help text.
 */

#ifndef CBWS_BASE_ARGPARSE_HH
#define CBWS_BASE_ARGPARSE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cbws
{

/**
 * Declarative option set + parser.
 */
class ArgParser
{
  public:
    ArgParser(std::string program, std::string description)
        : program_(std::move(program)),
          description_(std::move(description))
    {
    }

    /** Declare a string-valued option with a default. */
    void addOption(const std::string &name, const std::string &help,
                   const std::string &default_value = "");

    /** Declare a boolean flag (false unless present). */
    void addFlag(const std::string &name, const std::string &help);

    /** Declare a string option that may be given multiple times
     *  (`--pf-opt a=1 --pf-opt b=2`); collect with getAll(). */
    void addRepeatable(const std::string &name,
                       const std::string &help);

    /** Declare a named positional argument (for help text only). */
    void addPositional(const std::string &name,
                       const std::string &help);

    /**
     * Parse argv. Returns false (with an error message on stderr) on
     * unknown options or missing values. `--help` prints usage and
     * sets helpRequested().
     */
    bool parse(int argc, char **argv);

    bool helpRequested() const { return helpRequested_; }

    /** Value of option @p name (its default when not given). */
    std::string get(const std::string &name) const;

    /**
     * Option parsed as a plain unsigned decimal integer. A value given
     * on the command line that is not one (a sign, a suffix, empty, or
     * out of range) is a fatal() error naming the option; an
     * unparsable or empty declared default yields @p fallback.
     */
    std::uint64_t getUint(const std::string &name,
                          std::uint64_t fallback = 0) const;

    /** Was the flag present? */
    bool getFlag(const std::string &name) const;

    /** Every value given for a repeatable option, in argv order. */
    std::vector<std::string> getAll(const std::string &name) const;

    /** Was the option explicitly provided on the command line? */
    bool provided(const std::string &name) const;

    const std::vector<std::string> &positionals() const
    {
        return positionalValues_;
    }

    /** Render the usage/help text. */
    std::string usage() const;

  private:
    struct Option
    {
        std::string name;
        std::string help;
        std::string value;
        std::vector<std::string> values; ///< repeatable occurrences
        bool isFlag = false;
        bool repeatable = false;
        bool set = false;
    };

    Option *find(const std::string &name);
    const Option *find(const std::string &name) const;

    std::string program_;
    std::string description_;
    std::vector<Option> options_;
    std::vector<std::pair<std::string, std::string>> positionals_;
    std::vector<std::string> positionalValues_;
    bool helpRequested_ = false;
};

} // namespace cbws

#endif // CBWS_BASE_ARGPARSE_HH
